/**
 * @file
 * One timed pass of a workload's campaign through the public library
 * API: CampaignRunner -> (per cell) WorkloadCache::lease ->
 * SystemPool::lease -> core::runExperiment -> sinks.
 *
 * Every pass runs the runner's own built-in path (no custom executor),
 * so the end-to-end figures time exactly what corona-run executes. The
 * per-cell split comes from what the runner itself reports: with
 * timings on, a heartbeat stream gives each cell's wall and lease time
 * and each worker's pool reuses; with the rollup on, the runner's
 * rollup file gives each cell's end-of-run registry (the simulated
 * counts of the traced pass).
 */

#ifndef CORONA_BENCHMARK_HARNESS_HH
#define CORONA_BENCHMARK_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/obs_rollup.hh"
#include "campaign/spec.hh"
#include "obs/observe.hh"
#include "spans.hh"

namespace corona::benchmark {

/** Host time of one executed cell. */
struct CellStats
{
    double cell_s = 0.0;  ///< RunRecord::wall_seconds.
    /** Workload + system lease (build or reset); timings only. */
    double lease_s = 0.0;
    double run_s = 0.0;   ///< cell_s - lease_s; timings only.
};

/** What one pass over a campaign produced. */
struct Pass
{
    double wall_s = 0.0; ///< CampaignRunner::run.
    double sink_s = 0.0;
    std::size_t workers = 0;
    /** Leases a worker's SystemPool served by reset; timings only. */
    std::uint64_t pool_reuses = 0;
    /** Bytes the observability planes wrote (0 when off). */
    std::uint64_t obs_bytes = 0;
    std::vector<campaign::RunRecord> records;
    /** Indexed by run index. */
    std::vector<CellStats> cells;
    /** The runner's rollup file, read back (rollup on only). */
    campaign::ObsRollup rollup;
    /** The CSV sink's bytes. */
    std::string csv;
};

/** How to run a pass. */
struct PassOptions
{
    std::size_t workers = 1;
    /** The runner's observability planes; all off by default. */
    obs::CampaignObsOptions observability{};
    /** Attach a heartbeat stream and take per-cell lease and run
     * times from it (spans too, when the log is enabled). */
    bool timings = false;
};

/** Run @p spec once. Spans go to @p spans when it is enabled. */
Pass runPass(const campaign::CampaignSpec &spec,
             const PassOptions &options, SpanLog &spans);

/**
 * Build every distinct workload of @p spec once, as a worker's
 * WorkloadCache does on its first lease. @return host seconds.
 */
double buildWorkloads(const campaign::CampaignSpec &spec, SpanLog &spans);

/** The shard count the first cell of @p spec actually runs at. */
unsigned effectiveShards(const campaign::CampaignSpec &spec,
                         bool tracing);

/**
 * An isolated event-kernel storm: @p events self-rescheduling events
 * on one EventQueue with the tick deltas the network and memory models
 * emit. @return host ns per event.
 */
double kernelNsPerEvent(std::uint64_t events);

/** An isolated trace::Reader pass over @p path. */
struct DecodeResult
{
    double open_s = 0.0; ///< Header + index read and validated.
    double decode_s = 0.0;
    std::uint64_t records = 0;
};
DecodeResult decodeTrace(const std::string &path, SpanLog &spans);

} // namespace corona::benchmark

#endif // CORONA_BENCHMARK_HARNESS_HH
