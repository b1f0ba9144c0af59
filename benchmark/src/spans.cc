#include "spans.hh"

#include <algorithm>
#include <iomanip>
#include <set>

namespace corona::benchmark {

void
SpanLog::writeChromeTrace(std::ostream &os,
                          const std::string &metadata_json) const
{
    std::scoped_lock lock(_mutex);
    Clock::time_point origin = Clock::time_point::max();
    for (const Span &span : _spans) {
        if (span.id != 0)
            origin = std::min(origin, span.start);
    }
    const auto micros = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    os << std::fixed << std::setprecision(3)
       << "{\"displayTimeUnit\": \"ns\", \"otherData\": " << metadata_json
       << ",\n\"traceEvents\": [\n";
    std::set<std::uint32_t> lanes;
    for (const Span &span : _spans)
        lanes.insert(span.lane);
    bool first = true;
    for (const std::uint32_t lane : lanes) {
        os << (first ? "" : ",\n")
           << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
              "\"tid\": "
           << lane << ", \"args\": {\"name\": \""
           << (lane == 0 ? std::string("main")
                         : "worker " + std::to_string(lane - 1))
           << "\"}}";
        first = false;
    }
    for (const Span &span : _spans) {
        if (span.id == 0)
            continue; // never closed
        os << (first ? "" : ",\n") << "{\"ph\": \"X\", \"name\": \""
           << span.name << "\", \"pid\": 1, \"tid\": " << span.lane
           << ", \"ts\": " << micros(span.start)
           << ", \"dur\": " << micros(span.end) - micros(span.start)
           << ", \"args\": {\"id\": " << span.id
           << ", \"parent\": " << span.parent << ", \"run\": " << span.run
           << "}}";
        first = false;
    }
    os << "\n]}\n";
}

} // namespace corona::benchmark
