#include "obs/follow.hh"

#include <cstdlib>
#include <optional>
#include <sstream>

namespace corona::obs {

namespace {

/** Find the value text after `"key":` in @p line, or npos. */
std::size_t
valueStart(std::string_view line, std::string_view key)
{
    std::string needle = "\"";
    needle += key;
    needle += "\":";
    const std::size_t at = line.find(needle);
    return at == std::string_view::npos ? std::string_view::npos
                                        : at + needle.size();
}

std::optional<std::string>
jsonString(std::string_view line, std::string_view key)
{
    std::size_t at = valueStart(line, key);
    if (at == std::string_view::npos || at >= line.size() ||
        line[at] != '"')
        return std::nullopt;
    ++at;
    std::string out;
    while (at < line.size() && line[at] != '"') {
        if (line[at] == '\\' && at + 1 < line.size())
            ++at; // Keep the escaped char, drop the backslash.
        out += line[at];
        ++at;
    }
    if (at >= line.size())
        return std::nullopt; // Unterminated string.
    return out;
}

std::optional<double>
jsonNumber(std::string_view line, std::string_view key)
{
    const std::size_t at = valueStart(line, key);
    if (at == std::string_view::npos || at >= line.size())
        return std::nullopt;
    const std::string text(line.substr(at));
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        return std::nullopt;
    return value;
}

/** A count field; 0 (as if absent) unless it is a positive number
 * below 2^64, so the cast never sees an unrepresentable value. */
std::uint64_t
jsonCount(std::string_view line, std::string_view key)
{
    constexpr double kTwoTo64 = 18446744073709551616.0;
    const auto value = jsonNumber(line, key);
    return value && *value > 0 && *value < kTwoTo64
               ? static_cast<std::uint64_t>(*value)
               : 0;
}

std::optional<bool>
jsonBool(std::string_view line, std::string_view key)
{
    const std::size_t at = valueStart(line, key);
    if (at == std::string_view::npos)
        return std::nullopt;
    if (line.compare(at, 4, "true") == 0)
        return true;
    if (line.compare(at, 5, "false") == 0)
        return false;
    return std::nullopt;
}

} // namespace

void
HeartbeatFollower::feed(std::string_view chunk)
{
    _consumed += chunk.size();
    _tail.append(chunk);
    std::size_t start = 0;
    while (true) {
        const std::size_t nl = _tail.find('\n', start);
        if (nl == std::string::npos)
            break;
        feedLine(std::string_view(_tail).substr(start, nl - start));
        start = nl + 1;
    }
    _tail.erase(0, start);
}

void
HeartbeatFollower::feedLine(std::string_view line)
{
    // A writer mid-line when its process died can leave a torn final
    // line; it never gets a newline, so it stays buffered and is
    // simply never counted. Lines that do arrive must look like one
    // whole JSON object.
    ++_state.lines;
    if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
        ++_state.malformed;
        return;
    }
    const auto event = jsonString(line, "event");
    if (!event) {
        ++_state.malformed;
        return;
    }

    if (*event == "campaign_begin") {
        _state.campaign_begun = true;
        if (const auto name = jsonString(line, "campaign"))
            _state.campaign = *name;
        _state.runs = jsonCount(line, "runs");
        _state.replayed = jsonCount(line, "replayed");
        _state.pending = jsonCount(line, "pending");
        _state.threads = jsonCount(line, "threads");
    } else if (*event == "cell") {
        const auto ok = jsonBool(line, "ok");
        if (ok && !*ok)
            ++_state.cells_failed;
        else
            ++_state.cells_ok;
        if (const auto rate = jsonNumber(line, "ev_per_s"))
            _state.last_ev_per_s = *rate;
    } else if (*event == "worker_done") {
        // Per-worker lease accounting; nothing the live view needs.
    } else if (*event == "campaign_end") {
        _state.campaign_ended = true;
        _state.done = jsonCount(line, "done");
        _state.failed = jsonCount(line, "failed");
        if (const auto wall = jsonNumber(line, "wall_s"))
            _state.wall_s = *wall;
    } else if (*event == "launch_begin") {
        _state.launch_begun = true;
        _state.shards = jsonCount(line, "shards");
    } else if (*event == "shard_start") {
        ++_state.shard_starts;
    } else if (*event == "shard_stall") {
        ++_state.shard_stalls;
    } else if (*event == "shard_exit") {
        ++_state.shard_exits;
        const auto ok = jsonBool(line, "ok");
        if (ok && *ok)
            ++_state.shard_exit_ok;
    } else if (*event == "launch_done") {
        _state.launch_ended = true;
        const auto ok = jsonBool(line, "ok");
        _state.launch_ok = ok && *ok;
        if (const auto wall = jsonNumber(line, "wall_s"))
            _state.wall_s = *wall;
    } else {
        // Future event kinds must not kill a live monitor.
        ++_state.malformed;
    }
}

FollowSummary
summarize(const std::vector<FollowStreamState> &states)
{
    FollowSummary summary;
    summary.streams = states.size();
    for (const FollowStreamState &state : states) {
        if (state.finished())
            ++summary.finished;
        summary.runs += state.runs;
        summary.completed += state.completed();
        summary.failed += state.campaign_ended ? state.failed
                                               : state.cells_failed;
        if (!state.campaign_ended)
            summary.ev_per_s += state.last_ev_per_s;
        summary.shards += state.shards;
        summary.shard_exits += state.shard_exits;
        summary.shard_stalls += state.shard_stalls;
        summary.malformed += state.malformed;
    }
    return summary;
}

std::string
formatFollowLine(const FollowSummary &summary)
{
    std::ostringstream os;
    os << "runs " << summary.completed;
    if (summary.runs > 0)
        os << '/' << summary.runs;
    if (summary.failed > 0)
        os << " (" << summary.failed << " failed)";
    if (summary.ev_per_s > 0.0) {
        os.precision(3);
        os << " | " << summary.ev_per_s << " ev/s";
    }
    if (summary.shards > 0) {
        os << " | shards " << summary.shard_exits << '/'
           << summary.shards;
        if (summary.shard_stalls > 0)
            os << " (" << summary.shard_stalls << " stalled)";
    }
    os << " | streams " << summary.finished << '/' << summary.streams
       << " done";
    if (summary.malformed > 0)
        os << " | " << summary.malformed << " malformed";
    return os.str();
}

} // namespace corona::obs
