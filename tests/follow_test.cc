/**
 * @file
 * Tests for heartbeat tailing (src/obs/follow): chunking invariance
 * (the follower's state must not depend on how the poll loop slices
 * the bytes), torn-tail tolerance, malformed-line resilience, the
 * launcher-stream lifecycle, and the multi-stream summary + status
 * line that `corona-stats follow` renders.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/follow.hh"

namespace {

using namespace corona;

const char *const kRunnerStream =
    "{\"event\":\"campaign_begin\",\"campaign\":\"paper\",\"runs\":6,"
    "\"replayed\":2,\"pending\":4,\"threads\":2}\n"
    "{\"event\":\"cell\",\"worker\":0,\"run\":2,\"workload\":\"u\","
    "\"config\":\"XBar/OCM\",\"seed\":0,\"ok\":true,\"wall_s\":0.5,"
    "\"lease_s\":0.1,\"events\":1000,\"ev_per_s\":2000.5}\n"
    "{\"event\":\"cell\",\"worker\":1,\"run\":3,\"workload\":\"u\","
    "\"config\":\"XBar/OCM\",\"seed\":1,\"ok\":false,\"wall_s\":0.4,"
    "\"lease_s\":0.1,\"events\":900,\"ev_per_s\":2250}\n";

TEST(HeartbeatFollower, StateIsInvariantToChunking)
{
    const std::string bytes = kRunnerStream;

    // Whole-file, byte-at-a-time, and arbitrary split feeds must all
    // land on the identical state.
    std::vector<obs::HeartbeatFollower> followers(3);
    followers[0].feed(bytes);
    for (const char c : bytes)
        followers[1].feed(std::string_view(&c, 1));
    followers[2].feed(bytes.substr(0, 17));
    followers[2].feed(bytes.substr(17, 61));
    followers[2].feed(bytes.substr(78));

    for (obs::HeartbeatFollower &follower : followers) {
        const obs::FollowStreamState &state = follower.state();
        EXPECT_TRUE(state.campaign_begun);
        EXPECT_FALSE(state.finished());
        EXPECT_EQ(state.campaign, "paper");
        EXPECT_EQ(state.runs, 6u);
        EXPECT_EQ(state.replayed, 2u);
        EXPECT_EQ(state.cells_ok, 1u);
        EXPECT_EQ(state.cells_failed, 1u);
        EXPECT_EQ(state.completed(), 4u); // replayed + ok + failed.
        EXPECT_DOUBLE_EQ(state.last_ev_per_s, 2250.0);
        EXPECT_EQ(state.malformed, 0u);
        EXPECT_EQ(follower.consumed(), bytes.size());
    }
}

TEST(HeartbeatFollower, BuffersTheTornTailUntilTheRestArrives)
{
    obs::HeartbeatFollower follower;
    const std::string line =
        "{\"event\":\"campaign_end\",\"campaign\":\"paper\","
        "\"done\":6,\"failed\":0,\"wall_s\":1.5}\n";
    // A poll that lands mid-write sees a torn prefix; the follower
    // must not count it until the newline lands.
    follower.feed(line.substr(0, 20));
    EXPECT_EQ(follower.state().lines, 0u);
    EXPECT_FALSE(follower.finished());
    follower.feed(line.substr(20));
    EXPECT_EQ(follower.state().lines, 1u);
    EXPECT_TRUE(follower.finished());
    EXPECT_EQ(follower.state().done, 6u);
    EXPECT_DOUBLE_EQ(follower.state().wall_s, 1.5);

    // A permanently torn final line (writer died mid-write) is simply
    // never counted — no malformed tally, no crash.
    obs::HeartbeatFollower torn;
    torn.feed("{\"event\":\"cell\",\"ok\":tr");
    EXPECT_EQ(torn.state().lines, 0u);
    EXPECT_EQ(torn.state().malformed, 0u);
}

TEST(HeartbeatFollower, CountsGarbageAndUnknownEventsAsMalformed)
{
    obs::HeartbeatFollower follower;
    follower.feed("not json at all\n"
                  "{\"no_event_key\":1}\n"
                  "{\"event\":\"from_the_future\",\"x\":1}\n"
                  "{\"event\":\"cell\",\"ok\":true}\n");
    EXPECT_EQ(follower.state().lines, 4u);
    EXPECT_EQ(follower.state().malformed, 3u);
    EXPECT_EQ(follower.state().cells_ok, 1u);

    // Counts no uint64 can hold read as absent (0), like a missing key.
    follower.feed("{\"event\":\"campaign_begin\",\"runs\":1e30,"
                  "\"pending\":3}\n");
    EXPECT_EQ(follower.state().runs, 0u);
    EXPECT_EQ(follower.state().pending, 3u);
    follower.feed("{\"event\":\"campaign_begin\",\"runs\":inf}\n");
    EXPECT_EQ(follower.state().runs, 0u);
    EXPECT_EQ(follower.state().malformed, 3u);
}

TEST(HeartbeatFollower, TracksTheLauncherLifecycle)
{
    obs::HeartbeatFollower follower;
    follower.feed(
        "{\"event\":\"launch_begin\",\"shards\":2,\"max_parallel\":2,"
        "\"max_retries\":1}\n"
        "{\"event\":\"shard_start\",\"shard\":\"1/2\",\"attempt\":1,"
        "\"pid\":100}\n"
        "{\"event\":\"shard_start\",\"shard\":\"2/2\",\"attempt\":1,"
        "\"pid\":101}\n"
        "{\"event\":\"shard_stall\",\"shard\":\"2/2\","
        "\"stalled_s\":5.0,\"killed\":true}\n"
        "{\"event\":\"shard_exit\",\"shard\":\"1/2\",\"attempt\":1,"
        "\"exit_code\":0,\"rows\":3,\"ok\":true}\n");
    const obs::FollowStreamState &state = follower.state();
    EXPECT_TRUE(state.launch_begun);
    EXPECT_FALSE(state.finished());
    EXPECT_EQ(state.shards, 2u);
    EXPECT_EQ(state.shard_starts, 2u);
    EXPECT_EQ(state.shard_stalls, 1u);
    EXPECT_EQ(state.shard_exits, 1u);
    EXPECT_EQ(state.shard_exit_ok, 1u);

    follower.feed("{\"event\":\"launch_done\",\"ok\":true,"
                  "\"poisoned\":0,\"wall_s\":9.25}\n");
    EXPECT_TRUE(follower.finished());
    EXPECT_TRUE(follower.state().launch_ok);
}

TEST(FollowSummary, FoldsInterleavedShardStreamsOrderIndependently)
{
    // Two runner shards plus the launcher stream, fed in different
    // interleavings: summarize() folds per-stream states, so arrival
    // order across files cannot matter.
    const std::string shard1 =
        "{\"event\":\"campaign_begin\",\"campaign\":\"s\",\"runs\":4,"
        "\"replayed\":0,\"pending\":4,\"threads\":1}\n"
        "{\"event\":\"cell\",\"ok\":true,\"ev_per_s\":100}\n"
        "{\"event\":\"cell\",\"ok\":true,\"ev_per_s\":110}\n"
        "{\"event\":\"campaign_end\",\"campaign\":\"s\",\"done\":4,"
        "\"failed\":0,\"wall_s\":2}\n";
    const std::string shard2_live =
        "{\"event\":\"campaign_begin\",\"campaign\":\"s\",\"runs\":4,"
        "\"replayed\":1,\"pending\":3,\"threads\":1}\n"
        "{\"event\":\"cell\",\"ok\":true,\"ev_per_s\":50}\n"
        "{\"event\":\"cell\",\"ok\":false,\"ev_per_s\":60}\n";

    const auto summarizeOrder = [&](bool shard1_first) {
        obs::HeartbeatFollower a, b;
        if (shard1_first) {
            a.feed(shard1);
            b.feed(shard2_live);
        } else {
            b.feed(shard2_live);
            a.feed(shard1);
        }
        return obs::summarize({a.state(), b.state()});
    };

    for (const bool order : {true, false}) {
        const obs::FollowSummary summary = summarizeOrder(order);
        EXPECT_EQ(summary.streams, 2u);
        EXPECT_EQ(summary.finished, 1u);
        EXPECT_EQ(summary.runs, 8u);
        // Shard 1 reports its authoritative end tally (4), shard 2 is
        // live (replayed 1 + 1 ok + 1 failed = 3).
        EXPECT_EQ(summary.completed, 7u);
        EXPECT_EQ(summary.failed, 1u);
        // Only unfinished campaigns contribute a live rate.
        EXPECT_DOUBLE_EQ(summary.ev_per_s, 60.0);

        const std::string line = obs::formatFollowLine(summary);
        EXPECT_EQ(line, "runs 7/8 (1 failed) | 60 ev/s | "
                        "streams 1/2 done");
    }
}

} // namespace
