/**
 * @file
 * The benchmark's four workloads, generated from a seed.
 *
 * Each workload is a scenario file's text, built from the seed so the
 * simulator receives only generated inputs, plus the per-workload
 * correctness check. The reasons each workload exists are in why():
 * every one loads a different set of simulator layers, so a change
 * aimed at one layer has a workload that exercises it and one that
 * bypasses it.
 */

#ifndef CORONA_BENCHMARK_WORKLOADS_HH
#define CORONA_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace corona::benchmark {

enum class Workload
{
    PaperSweep,
    Xbar256Sharded,
    CoherentSharing,
    TraceObserved,
};

/** Parse a --workload name; false when unknown. */
bool workloadOf(const std::string &name, Workload &out);
const char *to_string(Workload workload);

/** One line on what the workload loads and why it was chosen. */
const char *why(Workload workload);

/** Budget scale: Full for measurement, Tiny for the self-test. */
enum class Budget
{
    Full,
    Tiny,
};

/**
 * The scenario text for @p workload at @p seed. @p trace_path is the
 * synthesized hotspot trace (trace-observed only) and @p obs_dir its
 * observability output directory.
 */
std::string scenarioText(Workload workload, std::uint64_t seed,
                         Budget budget, const std::string &trace_path,
                         const std::string &obs_dir);

/**
 * Synthesize the seed's hotspot trace to @p path (trace-observed's
 * input; the trace-layer probe reads it on every workload). @return
 * the record count.
 */
std::uint64_t synthesizeTrace(std::uint64_t seed, Budget budget,
                              const std::string &path);

/** One paper-shape relation evaluated on a sweep's records. */
struct ShapeResult
{
    std::string relation;
    double value = 0.0;
    bool held = false;
    /** Run indices of the cells the relation compares. */
    std::vector<std::size_t> cells;
};

/**
 * The relations tests/integration_test.cc asserts, evaluated on one
 * paper-sweep pass: XBar > HMesh > LMesh on Uniform, the ECM 0.96 TB/s
 * ceiling, the Hot Spot 160 GB/s pin, ECM latency > 1.5x OCM on FFT,
 * low-demand (Water-Sp) indifference, Radix's crossbar gain and LU's
 * latency gain. A relation whose cells are missing or failed counts as
 * violated.
 */
std::vector<ShapeResult>
paperShape(const std::vector<campaign::RunRecord> &records);

} // namespace corona::benchmark

#endif // CORONA_BENCHMARK_WORKLOADS_HH
