/**
 * @file
 * corona-benchmark: one workload, one seed, one mode.
 *
 *   corona-benchmark --workload NAME --seed N --seconds S --trace 0|1
 *                    --work-dir DIR [--span-dir DIR] [--budget tiny]
 *                    [--inject-mismatch] [--git-sha SHA]
 *                    [--source-digest HEX]
 *
 * --trace 0 times the workload's campaign untraced for S seconds and
 * reports the end-to-end metrics. --trace 1 alternates untraced and
 * traced passes for S seconds (their ratio is bench.trace_overhead),
 * runs the paired layer probes, reports the per-layer metrics and
 * writes the traced spans as Chrome trace JSON. Both modes run the
 * workload's exactness checks and count failing cells. Every metric is
 * printed by name with its unit and clock (host or sim); the last
 * stdout line is the JSON result. benchmark/README.md has the metric
 * table.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "harness.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workloads.hh"

#ifndef BENCH_COMPILER
#define BENCH_COMPILER "unknown"
#endif
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace corona::benchmark {

namespace {

/** Paired probe repetitions per invocation. */
constexpr int probePairs = 5;
/**
 * After every pass, setup is repeated in setupBatchesPerPass batches of
 * setupBatchSeconds each and every batch's median kept; setup_s is the
 * fastest batch median of the run. On a shared host a setup of tens of
 * microseconds is bimodal: consecutive 20 ms batches on one CPU read
 * about 36 or about 58 us, in spells of a fraction of a second to
 * seconds, and the share of slow spells drifts from minute to minute.
 * The fastest batch is the cost with the core to itself.
 */
constexpr double setupBatchSeconds = 0.005;
constexpr int setupBatchesPerPass = 4;
/** Passes a timed phase always runs, however short --seconds is. */
constexpr std::size_t minPasses = 3;
/** The speedup probe compares 1 shard with this many, the count the
 * xbar256-sharded workload runs at. */
constexpr unsigned probeShards = 3;
/** Request cap of the one-cell probes. */
constexpr std::uint64_t probeRequests = 50'000;

struct Options
{
    Workload workload = Workload::PaperSweep;
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool trace = false;
    Budget budget = Budget::Full;
    bool inject_mismatch = false;
    std::string work_dir;
    std::string span_dir;
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "corona-benchmark: " << error
              << "\nusage: corona-benchmark --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--span-dir DIR] "
                 "[--budget tiny] [--inject-mismatch] [--git-sha SHA] "
                 "[--source-digest HEX]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        usage(flag + " expects a non-negative integer, got \"" + text +
              "\"");
    return std::stoull(text);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-mismatch") {
            options.inject_mismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (!workloadOf(value, options.workload))
                usage("unknown workload \"" + value + "\"");
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t seconds = parseUnsigned(flag, value);
            if (seconds > 3600)
                usage("--seconds must be at most 3600");
            options.seconds = static_cast<unsigned>(seconds);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--budget") {
            if (value != "tiny" && value != "full")
                usage("--budget expects tiny or full");
            options.budget = value == "tiny" ? Budget::Tiny : Budget::Full;
        } else if (flag == "--work-dir") {
            options.work_dir = value;
        } else if (flag == "--span-dir") {
            options.span_dir = value;
        } else if (flag == "--git-sha") {
            options.git_sha = value;
        } else if (flag == "--source-digest") {
            options.source_digest = value;
        } else {
            usage("unknown option \"" + flag + "\"");
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (options.work_dir.empty())
        usage("--work-dir is required");
    return options;
}

// ------------------------------------------------------------ stats

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

/** Interquartile range as Python's statistics.quantiles(values, n=4)
 * gives it (the default, exclusive method); 0 for fewer than two
 * values. */
double
iqr(std::vector<double> values)
{
    const long n = static_cast<long>(values.size());
    if (n < 2)
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto cut = [&](long i) {
        const long m = n + 1;
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        return (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
    };
    return cut(3) - cut(1);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double value)
{
    return campaign::formatShortestDouble(value);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

// ----------------------------------------------------------- output

/** Metrics in print order; the JSON result carries them all. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit,
           const char *clock)
    {
        std::cout << "metric " << name << " = " << number(value) << " "
                  << unit << " (" << clock << ")\n";
        _json.push_back(jsonString(name) + ": {\"value\": " +
                        number(value) + ", \"unit\": " + jsonString(unit) +
                        "}");
    }

    static void
    info(const std::string &name, const std::string &value,
         const std::string &unit, const char *clock)
    {
        std::cout << "info " << name << " = " << value << " " << unit
                  << " (" << clock << ")\n";
    }

    void
    result(bool correct, std::uint64_t attempted,
           std::uint64_t failed) const
    {
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted
                  << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < _json.size(); ++i)
            std::cout << (i ? ", " : "") << _json[i];
        std::cout << "}}" << std::endl;
    }

  private:
    std::vector<std::string> _json;
};

/** @p shards is the first cell's effective shard count, after the
 * runner's serial fallbacks. */
std::string
fingerprint(const Options &options, std::size_t workers,
            unsigned sim_threads, unsigned shards)
{
    std::ostringstream os;
    os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ", \"compiler\": " << jsonString(BENCH_COMPILER)
       << ", \"build_type\": " << jsonString(BENCH_BUILD_TYPE)
       << ", \"git_sha\": " << jsonString(options.git_sha)
       << ", \"source_digest\": " << jsonString(options.source_digest)
       << ", \"workload\": " << jsonString(to_string(options.workload))
       << ", \"seed\": " << options.seed << ", \"workers\": " << workers
       << ", \"sim_threads\": " << sim_threads
       << ", \"effective_shards\": " << shards
       << ", \"budget\": "
       << jsonString(options.budget == Budget::Tiny ? "tiny" : "full")
       << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
    return os.str();
}

// ------------------------------------------------------------ setup

struct Setup
{
    campaign::ScenarioSpec scenario;
    campaign::CampaignSpec spec;
    /** The scenario's observability planes, as the runner takes them. */
    obs::CampaignObsOptions observability;
    std::string trace_path;
};

/** Durations of every setup repeat in the run. */
struct SetupTimes
{
    std::vector<double> total, resolve;
};

/**
 * Everything before the first cell: trace synthesis (trace-observed,
 * to @p trace_path), scenario parse, resolve (which validates the
 * trace's header and index) and the observability directory.
 */
Setup
setUp(const Options &options, const std::string &trace_path,
      SpanLog &spans, SetupTimes &times)
{
    ScopedSpan whole(spans, "bench.setup", 0);
    Setup s;
    if (options.workload == Workload::TraceObserved) {
        ScopedSpan synth(spans, "trace.synth", 0);
        s.trace_path = trace_path;
        synthesizeTrace(options.seed, options.budget, s.trace_path);
    }
    const std::string text =
        scenarioText(options.workload, options.seed, options.budget,
                     s.trace_path, options.work_dir + "/obs");
    {
        ScopedSpan parse(spans, "campaign.parse", 0);
        s.scenario = campaign::parseScenario(text);
    }
    {
        ScopedSpan resolve(spans, "campaign.resolve", 0);
        s.spec = s.scenario.resolve();
        times.resolve.push_back(resolve.finish());
    }
    if (s.scenario.observability.enabled()) {
        campaign::ScenarioObsSetup wiring;
        campaign::RunnerOptions runner_options;
        wiring.apply(s.scenario.observability, s.scenario.name,
                     runner_options);
        s.observability = runner_options.observability;
    }
    times.total.push_back(whole.finish());
    return s;
}

/** Repeat setup, untraced, in setupBatchesPerPass batches and record
 * each batch's medians. The repeats write their own trace file: the
 * campaign's input never changes. */
void
repeatSetup(const Options &options, SetupTimes &batches)
{
    SpanLog quiet(false);
    for (int b = 0; b < setupBatchesPerPass; ++b) {
        SetupTimes times;
        const auto start = Clock::now();
        do {
            setUp(options, options.work_dir + "/setup-repeat.ctrace",
                  quiet, times);
        } while (secondsSince(start) < setupBatchSeconds);
        batches.total.push_back(median(times.total));
        batches.resolve.push_back(median(times.resolve));
    }
}

/**
 * A pass at the scenario's worker count with its observability planes.
 * A timed pass reads the runner's heartbeat; a traced one also turns
 * the rollup on (in its own directory when the scenario has none) for
 * the simulated counts.
 */
PassOptions
passOptions(const Options &options, const Setup &setup, bool timings,
            bool traced)
{
    PassOptions pass;
    pass.workers = setup.scenario.execution.threads;
    pass.observability = setup.observability;
    pass.timings = timings || traced;
    if (traced && !pass.observability.rollup) {
        pass.observability.rollup = true;
        pass.observability.dir = options.work_dir + "/traced-obs";
        std::filesystem::create_directories(pass.observability.dir);
    }
    return pass;
}

std::uint64_t
requestsPerCell(const campaign::CampaignSpec &spec)
{
    return spec.base.requests + spec.base.warmup_requests;
}

/** Simulated requests per summed host cell-second. */
double
requestsPerCellSecond(const campaign::CampaignSpec &spec, const Pass &pass)
{
    double cell_s = 0.0;
    for (const CellStats &cell : pass.cells)
        cell_s += cell.cell_s;
    return static_cast<double>(requestsPerCell(spec) * pass.cells.size()) /
           cell_s;
}

// ----------------------------------------------------------- checks

/** Failing run indices per pass plus what the checks found. */
struct CheckResult
{
    std::vector<std::set<std::size_t>> failing;
    int shape_violations = -1;
    std::vector<std::string> notes;

    std::uint64_t
    failedCells() const
    {
        std::uint64_t n = 0;
        for (const auto &cells : failing)
            n += cells.size();
        return n;
    }
};

/** Mark cells of every pass whose row differs from @p reference. */
void
compareRows(const std::vector<Pass> &passes,
            const std::vector<std::string> &reference, const char *what,
            CheckResult &result)
{
    std::size_t mismatched = 0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (const campaign::RunRecord &record : passes[p].records) {
            if (record.index >= reference.size() ||
                campaign::csvRow(record) != reference[record.index]) {
                result.failing[p].insert(record.index);
                ++mismatched;
            }
        }
    }
    result.notes.push_back(std::string(what) + ": " +
                           (mismatched ? std::to_string(mismatched) +
                                             " cell rows differ"
                                       : "identical"));
}

std::vector<std::string>
rowsOf(const Pass &pass)
{
    std::vector<std::string> rows(pass.records.size());
    for (const campaign::RunRecord &record : pass.records)
        rows.at(record.index) = campaign::csvRow(record);
    return rows;
}

/**
 * The workload's exactness checks over @p passes (all of one spec):
 * every cell ok; every pass row-identical to the first (determinism);
 * and per workload — paper-sweep: the paper-shape relations on every
 * pass; xbar256-sharded: the 3-shard rows equal a 1-shard run's;
 * trace-observed: the sink bytes with observability on equal a run
 * with it off. --inject-mismatch perturbs the reference of the
 * workload's own check, which must then fail.
 */
CheckResult
runChecks(const Options &options, const Setup &setup,
          const std::vector<Pass> &passes, SpanLog &spans)
{
    ScopedSpan span(spans, "bench.checks", 0);
    CheckResult result;
    result.failing.resize(passes.size());
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (const campaign::RunRecord &record : passes[p].records) {
            if (!record.ok)
                result.failing[p].insert(record.index);
        }
    }

    std::vector<std::string> first = rowsOf(passes.front());
    if (options.inject_mismatch &&
        options.workload == Workload::CoherentSharing)
        first.front() += "#";
    compareRows(passes, first, "determinism across passes", result);

    switch (options.workload) {
      case Workload::PaperSweep: {
        result.shape_violations = 0;
        for (std::size_t p = 0; p < passes.size(); ++p) {
            std::vector<campaign::RunRecord> records = passes[p].records;
            if (options.inject_mismatch) {
                for (campaign::RunRecord &record : records) {
                    if (record.workload == "Uniform" &&
                        record.config == "XBar/OCM")
                        record.metrics.elapsed *= 3;
                }
            }
            int violations = 0;
            for (const ShapeResult &shape : paperShape(records)) {
                if (p == 0)
                    result.notes.push_back(
                        "paper shape: " + shape.relation + " (" +
                        number(shape.value) + ") " +
                        (shape.held ? "holds" : "VIOLATED"));
                if (!shape.held) {
                    ++violations;
                    result.failing[p].insert(shape.cells.begin(),
                                             shape.cells.end());
                }
            }
            result.shape_violations =
                std::max(result.shape_violations, violations);
        }
        break;
      }
      case Workload::Xbar256Sharded: {
        campaign::CampaignSpec serial = setup.spec;
        serial.base.sim_threads = 1;
        SpanLog quiet(false);
        std::vector<std::string> reference = rowsOf(runPass(
            serial, passOptions(options, setup, false, false), quiet));
        if (options.inject_mismatch)
            reference.front() += "#";
        compareRows(passes, reference, "3 shards vs 1 shard", result);
        break;
      }
      case Workload::TraceObserved: {
        PassOptions off = passOptions(options, setup, false, false);
        off.observability = obs::CampaignObsOptions{};
        SpanLog quiet(false);
        std::vector<std::string> reference =
            rowsOf(runPass(setup.spec, off, quiet));
        if (options.inject_mismatch)
            reference.front() += "#";
        compareRows(passes, reference, "sink rows obs on vs off", result);
        break;
      }
      case Workload::CoherentSharing:
        break;
    }
    return result;
}

// ------------------------------------------------------- per layer

/** Sums over one pass's end-of-run registry rows. */
struct RegistryTotals
{
    double token_grants = 0, grants_batched = 0;
    double token_wait_count = 0, token_wait_sum = 0;
    double busy_ticks = 0, channel_ticks = 0;
    double mesh_hops = 0, mesh_messages = 0;
    double mc_accesses = 0, mc_service_count = 0, mc_service_sum = 0;
    double mc_peak_queue = 0, mshr_full_stalls = 0;
    double l1_hits = 0, l1_refs = 0, l2_hits = 0, l2_refs = 0;
    double cache_writebacks = 0;
    double sideband = 0, invalidations = 0, broadcasts = 0, writebacks = 0;
};

/** When @p path is @p prefix + digits + "/" + rest, @return rest. */
bool
indexedSuffix(const std::string &path, const std::string &prefix,
              std::string &rest)
{
    if (path.compare(0, prefix.size(), prefix) != 0)
        return false;
    const std::size_t slash = path.find('/', prefix.size());
    if (slash == std::string::npos || slash == prefix.size())
        return false;
    for (std::size_t i = prefix.size(); i < slash; ++i) {
        if (path[i] < '0' || path[i] > '9')
            return false;
    }
    rest = path.substr(slash + 1);
    return true;
}

/** Add one cell's end-of-run registry row to @p t. */
void
addRow(RegistryTotals &t, const std::vector<std::string> &paths,
       const campaign::RollupRow &row)
{
    std::unordered_map<std::string, double> value;
    for (std::size_t i = 0; i < paths.size(); ++i)
        value.emplace(paths[i], row.values.at(i));
    // A histogram's mean weighted by its own sample count.
    const auto weighted = [&](const std::string &path, double &count,
                              double &sum) {
        const std::string stem = path.substr(0, path.size() - 4);
        const auto it = value.find(stem + "count");
        if (it != value.end()) {
            count += it->second;
            sum += it->second * value.at(path);
        }
    };
    const double end = static_cast<double>(row.tick);
    bool mesh = false;
    for (const auto &[path, v] : value) {
        std::string rest;
        if (indexedSuffix(path, "xbar/ch/", rest)) {
            if (rest == "token/grants")
                t.token_grants += v;
            else if (rest == "token/grants_batched")
                t.grants_batched += v;
            else if (rest == "token/wait/mean")
                weighted(path, t.token_wait_count, t.token_wait_sum);
            else if (rest == "busy_ticks") {
                t.busy_ticks += v;
                t.channel_ticks += end;
            }
        } else if (indexedSuffix(path, "mc/", rest)) {
            if (rest == "accesses")
                t.mc_accesses += v;
            else if (rest == "service/mean")
                weighted(path, t.mc_service_count, t.mc_service_sum);
            else if (rest == "peak_queue")
                t.mc_peak_queue = std::max(t.mc_peak_queue, v);
        } else if (indexedSuffix(path, "hub/", rest)) {
            if (rest == "mshr/full_stalls")
                t.mshr_full_stalls += v;
        } else if (indexedSuffix(path, "cache/", rest)) {
            if (rest == "l1/hits" || rest == "l1/misses")
                t.l1_refs += v;
            if (rest == "l1/hits")
                t.l1_hits += v;
            if (rest == "l2/hits" || rest == "l2/misses")
                t.l2_refs += v;
            if (rest == "l2/hits")
                t.l2_hits += v;
            if (rest == "l1/writebacks" || rest == "l2/writebacks")
                t.cache_writebacks += v;
        } else if (path.compare(0, 7, "mesh/r/") == 0) {
            mesh = true;
        } else if (path == "coherence/frontend/sideband_messages") {
            t.sideband += v;
        } else if (path == "coherence/msg/inval" ||
                   path == "coherence/msg/invalbcast") {
            t.invalidations += v;
        } else if (path == "coherence/frontend/broadcasts") {
            t.broadcasts += v;
        } else if (path == "coherence/frontend/writebacks") {
            t.writebacks += v;
        }
    }
    if (mesh) {
        t.mesh_hops += value["net/hops"];
        t.mesh_messages += value["net/messages"];
    }
}

RegistryTotals
registryTotals(const campaign::ObsRollup &rollup)
{
    RegistryTotals t;
    for (const campaign::RollupGroup &group : rollup.groups()) {
        for (const campaign::RollupRow &row : group.rows)
            addRow(t, group.paths, row);
    }
    return t;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** xbar256-sharded's one cell at the probes' capped budget. */
campaign::CampaignSpec
probeSpec(const campaign::CampaignSpec &spec, unsigned shards)
{
    campaign::CampaignSpec probe = spec;
    probe.base.requests = std::min(probe.base.requests, probeRequests);
    probe.base.sim_threads = shards;
    return probe;
}

/** Per-pair ratios of two alternating arms (b over a). */
std::vector<double>
pairedRatios(const std::function<double()> &a,
             const std::function<double()> &b)
{
    std::vector<double> ratios;
    for (int i = 0; i < probePairs; ++i) {
        double ta, tb;
        if (i % 2 == 0) {
            ta = a();
            tb = b();
        } else {
            tb = b();
            ta = a();
        }
        ratios.push_back(tb / ta);
    }
    return ratios;
}

double
sumRunSeconds(const Pass &pass)
{
    double s = 0.0;
    for (const CellStats &cell : pass.cells)
        s += cell.run_s;
    return s;
}

/**
 * The per-layer metrics: host times from the traced passes (the
 * runner's heartbeat) and the isolated probes, simulated counts from
 * the first traced pass's rollup. A probe runs only on the workload
 * that loads its layer (the shard probe on xbar256-sharded, the trace
 * and obs probes on trace-observed); elsewhere its metrics read 0.
 */
void
reportLayers(const Options &options, const Setup &setup, double resolve_s,
             const std::vector<Pass> &traced,
             const std::vector<double> &trace_ratios, SpanLog &spans,
             Report &report)
{
    const campaign::CampaignSpec &spec = setup.spec;
    const char *host = "host";
    const char *simt = "sim";
    const auto zero = [&](std::initializer_list<const char *> names,
                          const char *unit) {
        for (const char *name : names)
            report.metric(name, 0.0, unit, host);
    };

    // campaign
    std::vector<double> all_cells, cell_max, straggler, idle, sink, lease,
        run, ns_per_event, events_per_s;
    const Pass &first = traced.front();
    double events = 0.0;
    for (const campaign::RunRecord &record : first.records)
        events += static_cast<double>(record.metrics.events_executed);
    for (const Pass &pass : traced) {
        double sum_cell = 0, max_cell = 0, sum_lease = 0, sum_run = 0,
               sum_sim = 0;
        for (const CellStats &cell : pass.cells) {
            all_cells.push_back(cell.cell_s);
            sum_cell += cell.cell_s;
            max_cell = std::max(max_cell, cell.cell_s);
            sum_lease += cell.lease_s;
            sum_run += cell.run_s;
        }
        for (const campaign::RunRecord &record : pass.records)
            sum_sim += record.metrics.host_seconds;
        cell_max.push_back(max_cell);
        straggler.push_back(ratio(max_cell, pass.wall_s));
        idle.push_back(std::max(
            0.0, 1.0 - ratio(sum_cell, static_cast<double>(pass.workers) *
                                           pass.wall_s)));
        sink.push_back(pass.sink_s);
        lease.push_back(sum_lease);
        run.push_back(sum_run);
        ns_per_event.push_back(ratio(sum_run * 1e9, events));
        events_per_s.push_back(ratio(events, sum_sim));
    }
    report.metric("campaign.resolve_s", resolve_s, "s", host);
    report.metric("campaign.cell_s_p50", median(all_cells), "s", host);
    report.metric("campaign.cell_s_max", median(cell_max), "s", host);
    report.metric("campaign.straggler_share", median(straggler), "share",
                  host);
    report.metric("campaign.worker_idle_share", median(idle), "share",
                  host);
    report.metric("campaign.sink_s", median(sink), "s", host);

    // corona
    const double cells = static_cast<double>(first.cells.size());
    const double reuses = static_cast<double>(first.pool_reuses);
    report.metric("corona.lease_s", median(lease), "s", host);
    report.metric("corona.fresh_builds", cells - reuses, "count", host);
    report.metric("corona.pool_reuses", reuses, "count", host);
    report.metric("corona.run_s", median(run), "s", host);
    report.metric("corona.events", events, "count", simt);
    report.metric("corona.events_per_request",
                  ratio(events, static_cast<double>(requestsPerCell(spec)) *
                                    cells),
                  "events/request", simt);
    report.metric("corona.host_ns_per_event", median(ns_per_event), "ns",
                  host);

    // workload: every distinct workload of the grid built once.
    {
        std::vector<double> build;
        for (int i = 0; i < 3; ++i)
            build.push_back(buildWorkloads(spec, spans));
        report.metric("workload.build_s", median(build), "s", host);
    }

    // sim: the isolated kernel storm and the paired shard probe.
    {
        std::vector<double> storm;
        for (int i = 0; i < 3; ++i) {
            ScopedSpan span(spans, "sim.kernel_storm", 0);
            storm.push_back(kernelNsPerEvent(2'000'000));
        }
        report.metric("sim.events_per_s", median(events_per_s), "1/s",
                      host);
        report.metric("sim.kernel_ns_per_event", median(storm), "ns", host);
    }
    if (options.workload == Workload::Xbar256Sharded) {
        const PassOptions timed = passOptions(options, setup, true, false);
        SpanLog quiet(false);
        const auto arm = [&](unsigned shards) {
            return [&, shards] {
                return sumRunSeconds(
                    runPass(probeSpec(spec, shards), timed, quiet));
            };
        };
        ScopedSpan span(spans, "sim.shard_probe", 0);
        // Ratio of 1-shard to probeShards-shard time: the speedup.
        const std::vector<double> speedups =
            pairedRatios(arm(probeShards), arm(1));
        span.finish();
        const double speedup = median(speedups);
        report.metric("sim.shard_speedup", speedup, "x", host);
        report.metric("sim.shard_speedup_iqr", iqr(speedups), "x", host);
        report.metric("sim.shard_efficiency", speedup / probeShards,
                      "share", host);
        Report::info(
            "sim.shard_probe_effective_shards",
            std::to_string(effectiveShards(probeSpec(spec, probeShards),
                                           false)),
            "count", host);
    } else {
        zero({"sim.shard_speedup", "sim.shard_speedup_iqr"}, "x");
        zero({"sim.shard_efficiency"}, "share");
    }

    // Simulated counts from the end-of-run registry rollup.
    const RegistryTotals t = registryTotals(first.rollup);
    report.metric("xbar.token_grants", t.token_grants, "count", simt);
    report.metric("xbar.grants_batched_share",
                  ratio(t.grants_batched, t.token_grants), "share", simt);
    report.metric("xbar.token_wait_ns_mean",
                  ratio(t.token_wait_sum, t.token_wait_count) / 1000.0,
                  "ns", simt);
    report.metric("xbar.busy_share", ratio(t.busy_ticks, t.channel_ticks),
                  "share", simt);
    report.metric("mesh.hops", t.mesh_hops, "count", simt);
    report.metric("mesh.hops_per_message",
                  ratio(t.mesh_hops, t.mesh_messages), "hops/message",
                  simt);
    report.metric("memory.mc_accesses", t.mc_accesses, "count", simt);
    report.metric("memory.mc_service_ns_mean",
                  ratio(t.mc_service_sum, t.mc_service_count) / 1000.0,
                  "ns", simt);
    report.metric("memory.mc_peak_queue", t.mc_peak_queue, "count", simt);
    report.metric("memory.mshr_full_stalls", t.mshr_full_stalls, "count",
                  simt);
    report.metric("cache.l1_hit_ratio", ratio(t.l1_hits, t.l1_refs),
                  "share", simt);
    report.metric("cache.l2_hit_ratio", ratio(t.l2_hits, t.l2_refs),
                  "share", simt);
    report.metric("cache.writebacks", t.cache_writebacks, "count", simt);
    report.metric("coherence.sideband_messages", t.sideband, "count",
                  simt);
    report.metric("coherence.invalidations", t.invalidations, "count",
                  simt);
    report.metric("coherence.broadcasts", t.broadcasts, "count", simt);
    report.metric("coherence.writebacks", t.writebacks, "count", simt);

    if (options.workload == Workload::TraceObserved) {
        // trace: isolated Reader passes over the seed's hotspot trace.
        std::vector<double> open, rate;
        for (int i = 0; i < 3; ++i) {
            const DecodeResult d = decodeTrace(setup.trace_path, spans);
            open.push_back(d.open_s);
            rate.push_back(ratio(static_cast<double>(d.records),
                                 d.decode_s));
        }
        report.metric("trace.open_s", median(open), "s", host);
        report.metric("trace.decode_records_per_s", median(rate), "1/s",
                      host);

        // obs: the whole grid with its observability planes on vs off.
        const PassOptions on = passOptions(options, setup, false, false);
        PassOptions off = on;
        off.observability = obs::CampaignObsOptions{};
        SpanLog quiet(false);
        std::uint64_t bytes = 0;
        ScopedSpan span(spans, "obs.probe", 0);
        const std::vector<double> overheads = pairedRatios(
            [&] { return runPass(spec, off, quiet).wall_s; },
            [&] {
                const Pass pass = runPass(spec, on, quiet);
                bytes = pass.obs_bytes;
                return pass.wall_s;
            });
        span.finish();
        report.metric("obs.overhead", median(overheads), "x", host);
        report.metric("obs.overhead_iqr", iqr(overheads), "x", host);
        report.metric("obs.bytes_written", static_cast<double>(bytes),
                      "bytes", host);
    } else {
        zero({"trace.open_s"}, "s");
        zero({"trace.decode_records_per_s"}, "1/s");
        zero({"obs.overhead", "obs.overhead_iqr"}, "x");
        zero({"obs.bytes_written"}, "bytes");
    }

    report.metric("bench.trace_overhead", median(trace_ratios), "x", host);
    report.metric("bench.trace_overhead_iqr", iqr(trace_ratios), "x",
                  host);
}

// ------------------------------------------------------------- main

void
printSimDigest(const std::vector<Pass> &passes)
{
    const Pass &pass = passes.front();
    double bandwidth = 0.0, latency = 0.0;
    for (const campaign::RunRecord &record : pass.records) {
        bandwidth += record.metrics.achieved_bytes_per_second;
        latency += record.metrics.avg_latency_ns;
    }
    const double n = static_cast<double>(pass.records.size());
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv1a(pass.csv)));
    Report::info("sim.results_digest", digest, "fnv1a64-of-sink-csv",
                 "sim");
    Report::info("sim.cells", std::to_string(pass.records.size()), "count",
                 "sim");
    Report::info("sim.bandwidth_mean", number(bandwidth / n / 1e12),
                 "TB/s", "sim");
    Report::info("sim.latency_mean", number(latency / n), "ns", "sim");
}

int
run(const Options &options)
{
    std::filesystem::create_directories(options.work_dir);
    SpanLog spans(options.trace);
    SpanLog quiet(false);

    // The campaign's own setup runs cold and once; setup_s comes from the
    // repeats between passes.
    SetupTimes first_setup, setup_batches;
    const Setup setup = setUp(options, options.work_dir + "/hotspot.ctrace",
                              spans, first_setup);
    const std::size_t cells = setup.spec.totalRuns();
    const std::string host = fingerprint(
        options, setup.scenario.execution.threads,
        setup.spec.base.sim_threads,
        effectiveShards(setup.spec,
                        setup.observability.trace_capacity > 0));
    std::cout << "fingerprint " << host << "\n";
    std::cout << "workload " << to_string(options.workload) << ": "
              << why(options.workload) << "\n";

    Report report;
    std::vector<Pass> passes;
    std::vector<Pass> traced;
    std::vector<double> trace_ratios;
    const auto start = Clock::now();
    const auto more = [&](std::size_t done) {
        return done < minPasses ||
               secondsSince(start) < static_cast<double>(options.seconds);
    };
    double peak_rss_mb = 0.0;
    if (!options.trace) {
        const PassOptions untraced =
            passOptions(options, setup, false, false);
        while (more(passes.size())) {
            passes.push_back(runPass(setup.spec, untraced, quiet));
            repeatSetup(options, setup_batches);
        }
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    } else {
        const PassOptions untraced =
            passOptions(options, setup, false, false);
        const PassOptions with_spans =
            passOptions(options, setup, true, true);
        // Untimed warm-up, so neither arm of the first pair pays the
        // process's first heap growth.
        runPass(setup.spec, untraced, quiet);
        for (std::size_t i = 0; more(i); ++i) {
            Pass plain, full;
            if (i % 2 == 0) {
                plain = runPass(setup.spec, untraced, quiet);
                full = runPass(setup.spec, with_spans, spans);
            } else {
                full = runPass(setup.spec, with_spans, spans);
                plain = runPass(setup.spec, untraced, quiet);
            }
            trace_ratios.push_back(full.wall_s / plain.wall_s);
            repeatSetup(options, setup_batches);
            passes.push_back(std::move(plain));
            traced.push_back(std::move(full));
        }
    }

    std::vector<Pass> checked = passes;
    checked.insert(checked.end(), traced.begin(), traced.end());
    const CheckResult checks = runChecks(options, setup, checked, spans);
    const std::uint64_t attempted = cells * checked.size();
    const std::uint64_t failed = checks.failedCells();
    for (const std::string &note : checks.notes)
        std::cout << "check " << note << "\n";
    printSimDigest(passes);
    if (checks.shape_violations >= 0)
        Report::info("paper_shape_violations",
                     std::to_string(checks.shape_violations), "count",
                     "sim");
    Report::info("failed_frac",
                 number(static_cast<double>(failed) /
                        static_cast<double>(attempted)),
                 "share", "host");
    {
        std::string walls;
        for (const Pass &pass : passes) {
            if (!walls.empty())
                walls += ',';
            walls += number(pass.wall_s);
        }
        Report::info("pass_wall_s", walls, "s", "host");
    }

    if (!options.trace) {
        std::vector<double> wall, rate;
        for (const Pass &pass : passes) {
            wall.push_back(pass.wall_s);
            rate.push_back(requestsPerCellSecond(setup.spec, pass));
        }
        report.metric("wall_s", median(wall), "s", "host");
        report.metric("requests_per_s", median(rate), "1/s", "host");
        report.metric("setup_s", fastest(setup_batches.total), "s",
                      "host");
        report.metric("peak_rss_mb", peak_rss_mb, "MB", "host");
        report.metric("cells_ok_frac",
                      1.0 - static_cast<double>(failed) /
                                static_cast<double>(attempted),
                      "share", "host");
    } else {
        reportLayers(options, setup, fastest(setup_batches.resolve), traced,
                     trace_ratios, spans, report);
        if (!options.span_dir.empty()) {
            std::filesystem::create_directories(options.span_dir);
            const std::string path = options.span_dir + "/" +
                                     to_string(options.workload) + "-seed" +
                                     std::to_string(options.seed) +
                                     ".trace.json";
            std::ofstream out(path);
            spans.writeChromeTrace(out, host);
            out.close();
            if (!out)
                sim::fatal("benchmark: cannot write spans to \"" + path +
                           "\"");
            Report::info("spans", path, "chrome-trace-json", "host");
        }
    }
    report.result(failed == 0, attempted, failed);
    return 0;
}

} // namespace

} // namespace corona::benchmark

int
main(int argc, char **argv)
{
    const corona::benchmark::Options options =
        corona::benchmark::parseOptions(argc, argv);
    try {
        return corona::benchmark::run(options);
    } catch (const std::exception &e) {
        std::cerr << "corona-benchmark: " << e.what() << "\n";
        return 1;
    }
}
