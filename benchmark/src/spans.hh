/**
 * @file
 * In-memory host-time spans for the benchmark's traced pass.
 *
 * The benchmark times every call it makes into a simulator layer
 * (scenario resolve, campaign run, sink consume, the isolated probes,
 * ...), and adds the per-cell lease and run times the runner reports
 * in its heartbeat. A ScopedSpan always measures its own duration — the
 * untraced pass needs some of those times too — but only appends a Span
 * to the log when the log is enabled, so the untraced pass pays two
 * clock reads per call and nothing else. The log is written once, at exit,
 * as Chrome trace-event JSON, which the Perfetto UI loads directly.
 */

#ifndef CORONA_BENCHMARK_SPANS_HH
#define CORONA_BENCHMARK_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace corona::benchmark {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One closed span. @c name is a string literal (never owned). */
struct Span
{
    const char *name = "";
    std::uint32_t id = 0;
    /** Id of the enclosing span on the same thread; 0 = none. */
    std::uint32_t parent = 0;
    /** Lane in the trace view: 0 = the main thread, 1 + n = worker n. */
    std::uint32_t lane = 0;
    /** Campaign run index the span works for; -1 = none. Spans of one
     * cell share it. */
    std::int64_t run = -1;
    Clock::time_point start, end;
};

/** Thread-safe append-only span store. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : _enabled(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return _enabled; }

    /** Reserve an id for a span that is still open (children need it
     * as their parent before it closes). */
    std::uint32_t
    open()
    {
        std::scoped_lock lock(_mutex);
        _spans.push_back(Span{});
        return static_cast<std::uint32_t>(_spans.size());
    }

    /** Append a span timed elsewhere. @return its id. */
    std::uint32_t
    add(const Span &span)
    {
        std::scoped_lock lock(_mutex);
        _spans.push_back(span);
        _spans.back().id = static_cast<std::uint32_t>(_spans.size());
        return _spans.back().id;
    }

    void
    close(std::uint32_t id, const Span &span)
    {
        std::scoped_lock lock(_mutex);
        _spans[id - 1] = span;
        _spans[id - 1].id = id;
    }

    /**
     * Write every span as a complete ("ph":"X") trace event, times in
     * microseconds since the first span, plus @p metadata_json (a JSON
     * object) under "otherData".
     */
    void writeChromeTrace(std::ostream &os,
                          const std::string &metadata_json) const;

  private:
    const bool _enabled;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/**
 * RAII span: measures from construction to destruction (or to
 * finish()). Nesting on one thread sets the parent link.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint32_t lane,
               std::int64_t run = -1)
        : _log(log)
    {
        _span.name = name;
        _span.lane = lane;
        _span.run = run;
        if (_log.enabled()) {
            _span.parent = current();
            _id = _log.open();
            current() = _id;
        }
        _span.start = Clock::now();
    }

    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close the span now; @return its duration in seconds. */
    double
    finish()
    {
        if (!_open)
            return _seconds;
        _open = false;
        _span.end = Clock::now();
        _seconds =
            std::chrono::duration<double>(_span.end - _span.start).count();
        if (_id != 0) {
            _log.close(_id, _span);
            current() = _span.parent;
        }
        return _seconds;
    }

  private:
    static std::uint32_t &
    current()
    {
        thread_local std::uint32_t open_span = 0;
        return open_span;
    }

    SpanLog &_log;
    Span _span;
    std::uint32_t _id = 0;
    bool _open = true;
    double _seconds = 0.0;
};

} // namespace corona::benchmark

#endif // CORONA_BENCHMARK_SPANS_HH
