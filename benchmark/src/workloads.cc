#include "workloads.hh"

#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "sim/logging.hh"
#include "trace/ctrace.hh"
#include "trace/synth.hh"

namespace corona::benchmark {

namespace {

struct Entry
{
    Workload workload;
    const char *name;
    const char *why;
};

constexpr Entry entries[] = {
    {Workload::PaperSweep, "paper-sweep",
     "fig9 grid, 15 Table-3 workloads x 5 paper configs with "
     "warm-up: loads campaign, pool, all generators, fabrics and "
     "memories; warm-up bypasses the sharded executor"},
    {Workload::Xbar256Sharded, "xbar256-sharded",
     "one long 256-cluster Uniform run on XBar/OCM at 3 shards: host "
     "time is the sharded kernel, crossbar and memory; campaign and "
     "pool do almost nothing"},
    {Workload::CoherentSharing, "coherent-sharing",
     "coherent front end on unicast/broadcast XBar and HMesh/ECM, "
     "write-heavy next to read-mostly sharing: time goes to cache "
     "and directory; executor falls back to serial"},
    {Workload::TraceObserved, "trace-observed",
     "replay of a seeded hotspot .ctrace on XBar/HMesh/LMesh with "
     "sampler, tracer, snapshots and rollup on: the only workload "
     "that loads the trace and obs layers"},
};

/** Requests per cell, warm-up requests per cell. */
std::pair<std::uint64_t, std::uint64_t>
budgetOf(Workload workload, Budget budget)
{
    const bool tiny = budget == Budget::Tiny;
    switch (workload) {
      case Workload::PaperSweep:
        return tiny ? std::pair{6000, 1200} : std::pair{10000, 2000};
      case Workload::Xbar256Sharded:
        return tiny ? std::pair{20000, 0} : std::pair{200000, 0};
      case Workload::CoherentSharing:
        return tiny ? std::pair{2000, 200} : std::pair{10000, 1000};
      case Workload::TraceObserved:
        return tiny ? std::pair{8000, 0} : std::pair{60000, 0};
    }
    sim::fatal("benchmark: unknown workload");
}

/** Trace records per thread: enough that replay never wraps. */
std::uint64_t
traceRecordsPerThread(Budget budget)
{
    return budget == Budget::Tiny ? 16 : 96;
}

} // namespace

bool
workloadOf(const std::string &name, Workload &out)
{
    for (const Entry &entry : entries) {
        if (name == entry.name) {
            out = entry.workload;
            return true;
        }
    }
    return false;
}

const char *
to_string(Workload workload)
{
    for (const Entry &entry : entries) {
        if (entry.workload == workload)
            return entry.name;
    }
    return "?";
}

const char *
why(Workload workload)
{
    for (const Entry &entry : entries) {
        if (entry.workload == workload)
            return entry.why;
    }
    return "";
}

std::string
scenarioText(Workload workload, std::uint64_t seed, Budget budget,
             const std::string &trace_path, const std::string &obs_dir)
{
    const auto [requests, warmup] = budgetOf(workload, budget);
    std::ostringstream os;
    os << "[scenario]\nname = " << to_string(workload)
       << "\nrequests = " << requests
       << "\nwarmup_requests = " << warmup
       << "\nseed_policy = fixed\nseed = " << seed << "\n\n";
    // Worker threads x shards per simulation never exceeds 4 CPUs. The
    // sharded run takes 3 shards, not 4: its shards meet at a barrier
    // every simulated clock, so with all 4 CPUs busy any time the host
    // takes from one of them stalls every shard (measured run-to-run
    // spread on a 4-vCPU VM: 64% at 4 shards, under 10% at 3, at the
    // same median speed).
    unsigned threads = 3;
    unsigned sim_threads = 1;
    switch (workload) {
      case Workload::PaperSweep:
        os << "[workloads]\nworkload = all\n\n"
              "[configs]\nconfig = paper\n\n";
        break;
      case Workload::Xbar256Sharded:
        threads = 1;
        sim_threads = 3;
        os << "[workloads]\nworkload = Uniform clusters=256\n\n"
              "[configs]\nconfig = XBar/OCM clusters=256\n\n";
        break;
      case Workload::CoherentSharing:
        // Producer-Consumer ignores write_fraction (its writers are
        // fixed by cluster parity), so the read-mostly variant is
        // False Sharing at 5% writes. Workloads and configs are listed
        // longest cell first (HMesh/ECM cells take 3-5x the crossbar
        // ones), so no long cell starts last and pass times do not hinge
        // on which worker draws it.
        os << "[workloads]\n"
              "workload = Producer-Consumer\n"
              "workload = False Sharing\n"
              "workload = Migratory phase_length=2\n"
              "workload = False Sharing write_fraction=0.05\n"
              "workload = Uniform\n\n"
              "[configs]\n"
              "config = HMesh/ECM frontend=coherent\n"
              "config = XBar/OCM frontend=coherent inval_policy=unicast "
              "label=unicast\n"
              "config = XBar/OCM frontend=coherent broadcast_threshold=2 "
              "label=broadcast\n\n";
        break;
      case Workload::TraceObserved:
        threads = 3;
        os << "[workloads]\nworkload = trace:" << trace_path
           << " label=hotspot\n\n"
              "[configs]\nconfig = XBar/OCM\nconfig = HMesh/OCM\n"
              "config = LMesh/ECM\n\n"
              "[observability]\nsample_period = 500000\n"
              "trace_capacity = 65536\nsnapshot = on\nrollup = on\n"
              "dir = "
           << obs_dir << "\n\n";
        break;
    }
    os << "[execution]\nthreads = " << threads
       << "\nsim_threads = " << sim_threads << "\nprogress = off\n";
    return os.str();
}

std::uint64_t
synthesizeTrace(std::uint64_t seed, Budget budget, const std::string &path)
{
    trace::SynthSpec spec;
    spec.pattern = trace::SynthPattern::Hotspot;
    spec.records_per_thread = traceRecordsPerThread(budget);
    spec.hot_fraction = 0.9;
    spec.seed = seed;
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out)
        sim::fatal("benchmark: cannot write trace \"" + path + "\"");
    trace::WriterOptions options;
    options.synthetic_source = true;
    trace::Writer writer(out, spec.threads,
                         "synth:" + trace::to_string(spec.pattern),
                         options);
    const std::uint64_t written = trace::synthesize(spec, writer);
    writer.finish();
    out.close();
    if (!out)
        sim::fatal("benchmark: short write to trace \"" + path + "\"");
    return written;
}

std::vector<ShapeResult>
paperShape(const std::vector<campaign::RunRecord> &records)
{
    std::map<std::pair<std::string, std::string>,
             const campaign::RunRecord *>
        cell;
    for (const campaign::RunRecord &record : records)
        cell[{record.workload, record.config}] = &record;

    std::vector<ShapeResult> out;
    const auto find = [&](const std::string &workload,
                          const std::string &config,
                          ShapeResult &result) -> const core::RunMetrics * {
        const auto it = cell.find({workload, config});
        if (it == cell.end())
            return nullptr;
        result.cells.push_back(it->second->index);
        return it->second->ok ? &it->second->metrics : nullptr;
    };
    // @p faster's speedup over @p slower on @p workload, compared to
    // @p bound: above it when @p above, below it otherwise.
    const auto speedup = [&](const std::string &relation,
                             const std::string &workload,
                             const std::string &faster,
                             const std::string &slower, double bound,
                             bool above) {
        ShapeResult result;
        result.relation = relation;
        const auto *f = find(workload, faster, result);
        const auto *s = find(workload, slower, result);
        if (f && s && f->elapsed > 0 &&
            f->requests_issued == s->requests_issued) {
            result.value = f->speedupOver(*s);
            result.held = above ? result.value > bound : result.value < bound;
        }
        out.push_back(std::move(result));
    };

    speedup("uniform: HMesh/OCM over LMesh/ECM > 1.5", "Uniform",
            "HMesh/OCM", "LMesh/ECM", 1.5, true);
    speedup("uniform: XBar/OCM over HMesh/OCM > 1.2", "Uniform",
            "XBar/OCM", "HMesh/OCM", 1.2, true);
    speedup("uniform: XBar/OCM over LMesh/ECM > 2", "Uniform", "XBar/OCM",
            "LMesh/ECM", 2.0, true);

    {
        // Every ECM cell, not only the test's HMesh/ECM Uniform one.
        ShapeResult result;
        result.relation = "ECM bandwidth <= 0.96 TB/s (+5%) on every cell";
        result.held = true;
        bool any = false;
        for (const campaign::RunRecord &record : records) {
            if (record.config.find("ECM") == std::string::npos)
                continue;
            any = true;
            result.cells.push_back(record.index);
            const double bw = record.metrics.achieved_bytes_per_second;
            result.value = std::max(result.value, bw);
            if (!record.ok || bw > 0.96e12 * 1.05)
                result.held = false;
        }
        result.held = result.held && any;
        out.push_back(std::move(result));
    }
    {
        ShapeResult result;
        result.relation = "uniform: HMesh/ECM bandwidth >= 0.3 TB/s";
        const auto *m = find("Uniform", "HMesh/ECM", result);
        if (m) {
            result.value = m->achieved_bytes_per_second;
            result.held = result.value >= 0.3e12;
        }
        out.push_back(std::move(result));
    }

    speedup("hot spot: XBar/OCM over HMesh/OCM < 1.3", "Hot Spot",
            "XBar/OCM", "HMesh/OCM", 1.3, false);
    {
        ShapeResult result;
        result.relation = "hot spot: XBar/OCM bandwidth <= 160 GB/s (+10%)";
        const auto *m = find("Hot Spot", "XBar/OCM", result);
        if (m) {
            result.value = m->achieved_bytes_per_second;
            result.held = result.value <= 160e9 * 1.1;
        }
        out.push_back(std::move(result));
    }
    {
        ShapeResult result;
        result.relation = "FFT: HMesh/ECM latency > 1.5x HMesh/OCM";
        const auto *ecm = find("FFT", "HMesh/ECM", result);
        const auto *ocm = find("FFT", "HMesh/OCM", result);
        if (ecm && ocm && ocm->avg_latency_ns > 0.0) {
            result.value = ecm->avg_latency_ns / ocm->avg_latency_ns;
            result.held = result.value > 1.5;
        }
        out.push_back(std::move(result));
    }
    speedup("Water-Sp: XBar/OCM over LMesh/ECM < 1.35", "Water-Sp",
            "XBar/OCM", "LMesh/ECM", 1.35, false);
    speedup("Radix: XBar/OCM over HMesh/OCM > 1.15", "Radix", "XBar/OCM",
            "HMesh/OCM", 1.15, true);
    {
        ShapeResult result;
        result.relation = "LU: XBar/OCM latency < HMesh/OCM";
        const auto *xbar = find("LU", "XBar/OCM", result);
        const auto *hmesh = find("LU", "HMesh/OCM", result);
        if (xbar && hmesh && hmesh->avg_latency_ns > 0.0) {
            result.value = xbar->avg_latency_ns / hmesh->avg_latency_ns;
            result.held = result.value < 1.0;
        }
        out.push_back(std::move(result));
    }
    return out;
}

} // namespace corona::benchmark
