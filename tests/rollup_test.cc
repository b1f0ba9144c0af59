/**
 * @file
 * Tests for the campaign observability rollup (src/campaign/
 * obs_rollup): canonical write bytes (sorting, run deduplication),
 * read/write round trips, shard merging — the rollup bytes must be
 * identical whether a campaign ran as one process or as N shards —
 * and the deterministic report renderer.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/obs_rollup.hh"
#include "campaign/runner.hh"
#include "campaign/shard.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/config.hh"
#include "sim/logging.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

std::string
rollupBytes(const campaign::ObsRollup &rollup)
{
    std::ostringstream os;
    rollup.write(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Unit: canonical form, round trip, merge.

TEST(ObsRollup, WriteSortsGroupsAndRowsAndDeduplicatesRuns)
{
    campaign::ObsRollup rollup;
    rollup.addRun("zeta", 3, 30, {"p/a", "p/b"}, {3.0, 0.25});
    rollup.addRun("alpha", 1, 10, {"q/x"}, {1.5});
    rollup.addRun("zeta", 2, 20, {}, {2.0, 0.5});
    // Same run again (a retried cell): last write wins.
    rollup.addRun("zeta", 3, 31, {}, {3.5, 0.75});

    EXPECT_EQ(rollupBytes(rollup), "corona-rollup-v1\n"
                                   "group,alpha\n"
                                   "run,tick,q/x\n"
                                   "1,10,1.5\n"
                                   "group,zeta\n"
                                   "run,tick,p/a,p/b\n"
                                   "2,20,2,0.5\n"
                                   "3,31,3.5,0.75\n");
}

TEST(ObsRollup, RejectsMismatchedPathsAndValueCounts)
{
    campaign::ObsRollup rollup;
    rollup.addRun("cfg", 0, 5, {"p/a", "p/b"}, {1.0, 2.0});
    EXPECT_THROW(rollup.addRun("cfg", 1, 6, {"p/a", "p/DIFFERENT"},
                               {1.0, 2.0}),
                 sim::FatalError);
    EXPECT_THROW(rollup.addRun("cfg", 1, 6, {}, {1.0}),
                 sim::FatalError);
}

TEST(ObsRollup, ReadWriteRoundTripIsByteStable)
{
    campaign::ObsRollup rollup;
    rollup.addRun("cfg", 0, 100, {"a/b", "c/d"}, {0.1, 1e-9});
    rollup.addRun("cfg", 1, 200, {}, {0.30000000000000004, 12345.0});
    // Every value class obs::formatValue writes must read back.
    rollup.addRun("special", 2, 300,
                  {"v/nan", "v/inf", "v/ninf", "v/nzero", "v/tiny",
                   "v/max"},
                  {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), -0.0,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()});

    const std::string bytes = rollupBytes(rollup);
    std::istringstream in(bytes);
    const campaign::ObsRollup reread =
        campaign::ObsRollup::read(in, "round trip");
    EXPECT_EQ(rollupBytes(reread), bytes);
}

TEST(ObsRollup, ReadRejectsSignedOrMalformedIndices)
{
    // Run indices and ticks are plain decimal counts: a sign (an
    // accepted "-1" would wrap to 2^64-1), whitespace, hex, or an
    // empty field is fatal, and so is a value with a leading '+'.
    for (const char *row : {"-1,100,5", "+5,100,5", "1,-100,5",
                            "1, 100,5", "0x1,100,5", ",100,5",
                            "1,100,+5", "1,100,"}) {
        std::istringstream in(std::string("corona-rollup-v1\n"
                                          "group,cfg\n"
                                          "run,tick,p/a\n"
                                          "0,100,5\n") +
                              row + "\n");
        EXPECT_THROW(campaign::ObsRollup::read(in, "signed"),
                     sim::FatalError)
            << row;
    }
}

TEST(ObsRollup, MergeOrderDoesNotChangeTheBytes)
{
    campaign::ObsRollup a, b;
    a.addRun("cfg", 0, 10, {"p/x"}, {1.0});
    a.addRun("other", 2, 30, {"q/y"}, {3.0});
    b.addRun("cfg", 1, 20, {"p/x"}, {2.0});

    campaign::ObsRollup ab, ba;
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(rollupBytes(ab), rollupBytes(ba));
    EXPECT_EQ(ab.runCount(), 3u);
}

// ---------------------------------------------------------------------
// End to end: one process vs N shards produce identical rollup bytes.

campaign::CampaignSpec
rollupSpec()
{
    campaign::CampaignSpec spec;
    spec.name = "rollup-parity";
    spec.workloads = {{"Uniform", true, workload::makeUniform}};
    spec.configs = {
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        core::makeConfig(core::NetworkKind::XBar,
                         core::MemoryKind::ECM),
    };
    spec.seeds = {0, 1};
    spec.base.requests = 200;
    return spec;
}

/** Run the grid's @p shard slice with the rollup plane on, writing
 * into @p dir; returns the rollup file path the runner wrote. */
std::string
runShard(const std::string &dir, campaign::ShardSpec shard,
         std::size_t threads)
{
    std::filesystem::create_directories(dir);
    campaign::RunnerOptions options;
    options.threads = threads;
    options.shard = shard;
    options.observability.rollup = true;
    options.observability.dir = dir;
    campaign::CampaignRunner runner(options);
    runner.run(rollupSpec());
    std::string path = dir + "/rollup";
    if (!shard.isWhole())
        path += "-" + std::to_string(shard.index + 1) + "-" +
                std::to_string(shard.count);
    return path + ".csv";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(ObsRollup, ShardMergeMatchesTheWholeRunByteForByte)
{
    const std::string whole_dir = ::testing::TempDir() + "/rollup_whole";
    const std::string whole = runShard(whole_dir, {}, 2);

    const std::string shard_dir =
        ::testing::TempDir() + "/rollup_shards";
    campaign::ObsRollup merged;
    for (std::size_t index = 0; index < 2; ++index) {
        campaign::ShardSpec shard;
        shard.index = index;
        shard.count = 2;
        const std::string path = runShard(shard_dir, shard, 1);
        merged.merge(campaign::readRollupFile(path));
    }

    EXPECT_EQ(rollupBytes(merged), slurp(whole));
    // Worker count must not matter either: the whole run above used 2
    // threads, the shards 1 each.
    const std::string whole1_dir =
        ::testing::TempDir() + "/rollup_whole1";
    EXPECT_EQ(slurp(runShard(whole1_dir, {}, 1)), slurp(whole));
}

// ---------------------------------------------------------------------
// Report rendering.

TEST(ObsRollup, ReportIsDeterministicAndRanksChannels)
{
    campaign::ObsRollup rollup;
    const std::vector<std::string> paths = {
        "tick",
        "xbar/ch/0/busy_ticks",
        "xbar/ch/0/messages",
        "xbar/ch/1/busy_ticks",
        "xbar/ch/1/messages",
        "mesh/r/3/injection_depth",
    };
    rollup.addRun("cfg", 0, 1000, paths,
                  {1000.0, 250.0, 10.0, 750.0, 30.0, 2.0});
    rollup.addRun("cfg", 1, 1000, {},
                  {1000.0, 350.0, 14.0, 650.0, 26.0, 4.0});

    campaign::RollupReportOptions options;
    options.top = 1;
    options.probes = "xbar/ch/0/";
    std::ostringstream a, b;
    campaign::writeRollupReport(a, rollup, options);
    campaign::writeRollupReport(b, rollup, options);
    EXPECT_EQ(a.str(), b.str());

    const std::string report = a.str();
    EXPECT_NE(report.find("campaign rollup: 1 group, 2 runs"),
              std::string::npos);
    EXPECT_NE(report.find("group cfg: runs=2 probes=6"),
              std::string::npos);
    // Channel 1 is hotter on mean busy fraction (0.7 vs 0.3), and
    // top=1 keeps only it.
    EXPECT_NE(report.find("1. xbar/ch/1 busy_frac=0.7 messages=28"),
              std::string::npos);
    EXPECT_EQ(report.find("1. xbar/ch/0"), std::string::npos);
    EXPECT_NE(report.find("1. mesh/r/3 injection_depth=3"),
              std::string::npos);
    EXPECT_NE(report.find("xbar/ch/0/busy_ticks count=2 mean=300 "
                          "min=250 max=350 p95=350"),
              std::string::npos);
}

} // namespace
