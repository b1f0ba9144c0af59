/**
 * @file
 * Ablation for Section 3.2.1's channel sizing: sweep the bundle width
 * (waveguides per channel, hence bytes per clock) and measure Uniform
 * throughput and latency on XBar/OCM. The paper's 4-guide, 256-lambda
 * design moves a 64 B line in one clock; narrower bundles serialize.
 *
 * The four widths are one campaign (a config axis), executed
 * concurrently on the campaign engine.
 */

#include <iostream>

#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "sim/logging.hh"
#include "stats/report.hh"

int
main()
{
    using namespace corona;

    constexpr std::uint32_t kGuides[] = {1, 2, 4, 8};

    // The sweep as a serializable scenario: the bundle width is the
    // bytes_per_clock config knob (16 B per waveguide, 64 l DDR).
    campaign::ScenarioSpec scenario;
    scenario.name = "xbar-width";
    scenario.workloads = {"Uniform"};
    for (const std::uint32_t guides : kGuides) {
        scenario.configs.push_back(
            "XBar/OCM bytes_per_clock=" + std::to_string(guides * 16) +
            " label=g" + std::to_string(guides));
    }
    scenario.requests =
        std::min<std::uint64_t>(core::defaultRequestBudget(), 20'000);
    scenario.seed_policy = campaign::SeedPolicy::Fixed;
    scenario.execution.progress = false;

    const campaign::ScenarioRunResult result = campaign::runScenario(
        scenario, {.quiet = true, .env = campaign::EnvOverrides::None});

    stats::TableWriter table(
        "Crossbar bundle-width ablation (Uniform, XBar/OCM)");
    table.setHeader({"waveguides/channel", "bytes/clock",
                     "channel BW", "achieved memory BW",
                     "avg latency (ns)"});

    for (const auto &record : result.records) {
        if (!record.ok)
            sim::fatal("xbar-width ablation: run " +
                       std::to_string(record.index) +
                       " failed: " + record.error);
        const std::uint32_t guides = kGuides[record.config_index];
        table.addRow({
            std::to_string(guides),
            std::to_string(guides * 16),
            stats::formatBandwidth(guides * 16 * 5e9),
            stats::formatBandwidth(
                record.metrics.achieved_bytes_per_second),
            stats::formatDouble(record.metrics.avg_latency_ns, 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nThe paper's choice (4 guides, 64 B/clock) is the "
                 "knee: a full cache line per\nclock keeps the in-order "
                 "cores' stall time minimal, while wider bundles add\n"
                 "rings and power for little gain once memory becomes "
                 "the bottleneck.\n";
    return 0;
}
