#include "harness.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "corona/exec_plan.hh"
#include "obs/heartbeat.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "trace/ctrace.hh"

namespace corona::benchmark {

namespace {

/** Forwards to a CsvSink and times each call. */
class TimedSink : public campaign::ResultSink
{
  public:
    TimedSink(std::ostream &os, SpanLog &spans) : _csv(os), _spans(spans)
    {
    }

    void
    begin(const campaign::CampaignSpec &spec,
          std::size_t total_runs) override
    {
        ScopedSpan span(_spans, "campaign.sink", 0);
        _csv.begin(spec, total_runs);
        _seconds += span.finish();
    }

    void
    consume(const campaign::RunRecord &record) override
    {
        ScopedSpan span(_spans, "campaign.sink", 0,
                        static_cast<std::int64_t>(record.index));
        _csv.consume(record);
        _seconds += span.finish();
    }

    void
    end() override
    {
        ScopedSpan span(_spans, "campaign.sink", 0);
        _csv.end();
        _seconds += span.finish();
    }

    /** Sink calls are serialised by the runner's emit lock. */
    double seconds() const { return _seconds; }

  private:
    campaign::CsvSink _csv;
    SpanLog &_spans;
    double _seconds = 0.0;
};

/**
 * Keeps a heartbeat stream's bytes and stamps every line with the host
 * time it was written: HeartbeatWriter flushes once per line, right
 * after the event the line reports.
 */
class StampedBuffer : public std::stringbuf
{
  public:
    std::vector<Clock::time_point> stamps;

  protected:
    int
    sync() override
    {
        stamps.push_back(Clock::now());
        return 0;
    }
};

bool
isEvent(const std::string &line, const char *event)
{
    return line.rfind(std::string("{\"event\":\"") + event + "\"", 0) == 0;
}

/** The number after "name": in a heartbeat line. */
double
heartbeatField(const std::string &line, const char *name)
{
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        sim::fatal("benchmark: heartbeat line lacks \"" +
                   std::string(name) + "\": " + line);
    return std::strtod(line.c_str() + at + key.size(), nullptr);
}

/**
 * Fill the per-cell lease and run times and the pool reuses from the
 * runner's heartbeat lines. With spans enabled, every cell becomes a
 * campaign.cell span on its worker's lane, split into corona.lease
 * (workload and system lease) and corona.run, ending when its line was
 * written.
 */
void
readHeartbeat(const StampedBuffer &buffer, Pass &pass, SpanLog &spans)
{
    const auto duration = [](double seconds) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    };
    std::istringstream lines(buffer.str());
    std::string line;
    for (std::size_t i = 0; std::getline(lines, line); ++i) {
        if (isEvent(line, "worker_done")) {
            pass.pool_reuses += static_cast<std::uint64_t>(
                heartbeatField(line, "pool_reuses"));
            continue;
        }
        if (!isEvent(line, "cell"))
            continue;
        const auto run =
            static_cast<std::int64_t>(heartbeatField(line, "run"));
        CellStats &cell = pass.cells.at(static_cast<std::size_t>(run));
        cell.lease_s = heartbeatField(line, "lease_s");
        cell.run_s = cell.cell_s - cell.lease_s;
        if (!spans.enabled())
            continue;
        const auto lane =
            1 + static_cast<std::uint32_t>(heartbeatField(line, "worker"));
        const Clock::time_point end = buffer.stamps.at(i);
        const Clock::time_point start = end - duration(cell.cell_s);
        const Clock::time_point leased = start + duration(cell.lease_s);
        const std::uint32_t id =
            spans.add({"campaign.cell", 0, 0, lane, run, start, end});
        spans.add({"corona.lease", 0, id, lane, run, start, leased});
        spans.add({"corona.run", 0, id, lane, run, leased, end});
    }
}

/** Total bytes of the regular files under @p dir (0 when absent). */
std::uint64_t
directoryBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            bytes += it->file_size(ec);
    }
    return bytes;
}

} // namespace

Pass
runPass(const campaign::CampaignSpec &spec, const PassOptions &options,
        SpanLog &spans)
{
    Pass pass;
    campaign::RunnerOptions runner_options;
    runner_options.threads = options.workers;
    runner_options.observability = options.observability;
    StampedBuffer beats;
    std::ostream beat_stream(&beats);
    obs::HeartbeatWriter heartbeat(beat_stream);
    if (options.timings)
        runner_options.heartbeat = &heartbeat;
    campaign::CampaignRunner runner(runner_options);
    pass.workers = runner.effectiveThreads(spec.totalRuns());

    std::ostringstream csv;
    TimedSink sink(csv, spans);
    runner.addSink(sink);
    {
        ScopedSpan whole(spans, "campaign.run", 0);
        pass.records = runner.run(spec);
        pass.wall_s = whole.finish();
    }
    pass.sink_s = sink.seconds();
    pass.csv = csv.str();

    pass.cells.resize(pass.records.size());
    for (const campaign::RunRecord &record : pass.records)
        pass.cells.at(record.index).cell_s = record.wall_seconds;
    if (options.timings)
        readHeartbeat(beats, pass, spans);
    if (options.observability.rollup)
        pass.rollup = campaign::readRollupFile(options.observability.dir +
                                               "/rollup.csv");
    if (options.observability.enabled())
        pass.obs_bytes = directoryBytes(options.observability.dir);
    return pass;
}

double
buildWorkloads(const campaign::CampaignSpec &spec, SpanLog &spans)
{
    const std::vector<campaign::RunPlan> plans = campaign::expand(spec);
    std::set<std::size_t> seen;
    std::vector<std::unique_ptr<workload::Workload>> built;
    ScopedSpan span(spans, "workload.build", 0);
    for (const campaign::RunPlan &plan : plans) {
        if (seen.insert(plan.workload_index).second)
            built.push_back(plan.make_workload());
    }
    const double seconds = span.finish();
    for (const auto &workload : built) {
        if (!workload)
            sim::fatal("benchmark: a workload factory returned null");
    }
    return seconds;
}

unsigned
effectiveShards(const campaign::CampaignSpec &spec, bool tracing)
{
    const campaign::RunPlan plan = campaign::expand(spec).front();
    const std::unique_ptr<workload::Workload> workload =
        plan.make_workload();
    return core::effectiveSimThreads(plan.params.sim_threads, plan.system,
                                     *workload,
                                     plan.params.warmup_requests, tracing);
}

namespace {

/** The payload a network message event carries (5 words). */
struct Payload
{
    std::uint64_t words[5];
};

struct Storm
{
    sim::EventQueue eq;
    std::uint64_t scheduled = 0;
    std::uint64_t budget = 0;

    void
    fire(Payload payload)
    {
        // Tick deltas modelled on what the network and memory models
        // emit.
        static constexpr sim::Tick deltas[] = {25,   200, 175, 50,
                                               400, 1000, 200, 75};
        if (scheduled < budget) {
            payload.words[0] = ++scheduled;
            eq.scheduleIn(deltas[scheduled % 8],
                          [this, payload] { fire(payload); });
        }
    }
};

} // namespace

double
kernelNsPerEvent(std::uint64_t events)
{
    auto storm = std::make_unique<Storm>();
    storm->budget = events;
    constexpr std::uint64_t actors = 64;
    for (std::uint64_t a = 0; a < actors && storm->scheduled < events;
         ++a) {
        ++storm->scheduled;
        const Payload seed{{a, 0, 0, 0, 0}};
        Storm *s = storm.get();
        storm->eq.schedule(a * 25, [s, seed] { s->fire(seed); });
    }
    const auto start = Clock::now();
    storm->eq.run();
    const double seconds = secondsSince(start);
    if (storm->eq.executed() != events)
        sim::fatal("benchmark: event storm lost events");
    return seconds * 1e9 / static_cast<double>(events);
}

DecodeResult
decodeTrace(const std::string &path, SpanLog &spans)
{
    DecodeResult result;
    ScopedSpan open_span(spans, "trace.open", 0);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        sim::fatal("benchmark: cannot read trace \"" + path + "\"");
    trace::Reader reader(in, path);
    result.open_s = open_span.finish();

    ScopedSpan decode_span(spans, "trace.decode", 0);
    std::vector<workload::TraceRecord> block;
    for (std::uint32_t b = 0; b < reader.blocks().size(); ++b) {
        reader.readBlock(b, block);
        result.records += block.size();
    }
    result.decode_s = decode_span.finish();
    if (result.records != reader.info().records)
        sim::fatal("benchmark: trace decode count mismatch");
    return result;
}

} // namespace corona::benchmark
