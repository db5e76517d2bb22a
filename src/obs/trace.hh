/**
 * @file
 * Structured pipeline event tracer. Components record spans (begin/
 * end or complete), instant events and counter samples against a
 * virtual clock measured in simulated cycles; the sink keeps them in
 * a bounded ring buffer (oldest events are overwritten, never
 * reallocating on the hot path) and serialises to Chrome trace-event
 * JSON loadable in Perfetto / chrome://tracing (1 "us" in the UI =
 * 1 simulated cycle).
 *
 * Tracing is zero-cost when off: every instrumentation site goes
 * through the UNISTC_TRACE_* macros, which compile to nothing when
 * UNISTC_TRACING_ENABLED is 0 and reduce to a null-pointer test when
 * no sink is attached (the common case). Events are grouped into
 * per-stage tracks (Chrome "threads") and per-model processes.
 */

#ifndef UNISTC_OBS_TRACE_HH
#define UNISTC_OBS_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace unistc
{

/** Pipeline stages, one trace track ("thread") each. */
enum class TraceTrack : int
{
    Runner = 0, ///< Kernel runner: T1 task issue (Algorithms 1/2).
    Tms = 1,    ///< Stage 1: TMS T3 task generation.
    Dpg = 2,    ///< Stage 2: DPG T4 expansion.
    Sdpu = 3,   ///< Stage 3: SDPU segment execution / write-back.
    Memory = 4, ///< Off-chip memory model events.
};

/** Printable track name (shown as the Perfetto thread name). */
const char *toString(TraceTrack track);

/** One recorded trace event. */
struct TraceEvent
{
    char phase = 'i';      ///< 'X' complete, 'i' instant, 'C' counter.
    int pid = 0;           ///< Process id (one per traced model).
    int tid = 0;           ///< Track id (TraceTrack).
    std::uint64_t ts = 0;  ///< Start timestamp in cycles.
    std::uint64_t dur = 0; ///< Duration in cycles ('X' only).
    std::string name;
    double value = 0.0;    ///< Counter sample ('C' only).
};

/**
 * Bounded event sink. Not thread-safe (the simulator is single-
 * threaded); all timestamps are supplied by the caller in simulated
 * cycles.
 */
class TraceSink
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1}
                                                    << 16;

    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    /** Runtime guard; a disabled sink records nothing. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Switch the current process (one per traced model) and record
     * its display name. Subsequent events carry @p pid.
     */
    void setProcess(int pid, const std::string &name);

    /** Open a span on @p track (spans may nest per track). */
    void begin(TraceTrack track, std::string name, std::uint64_t ts);

    /**
     * Close the innermost open span on @p track, emitting one 'X'
     * event. An end without a matching begin is counted (see
     * unbalanced()) and otherwise ignored.
     */
    void end(TraceTrack track, std::uint64_t ts);

    /** Emit a complete span in one call. */
    void complete(TraceTrack track, std::string name, std::uint64_t ts,
                  std::uint64_t dur);

    /** Emit an instant event. */
    void instant(TraceTrack track, std::string name, std::uint64_t ts);

    /** Emit a counter sample (rendered as a track graph). */
    void counter(std::string name, std::uint64_t ts, double value);

    /** Events currently held (<= capacity). */
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Total events recorded over the sink's lifetime. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events overwritten by ring wraparound. */
    std::uint64_t dropped() const { return recorded_ - size_; }

    /** end() calls that found no open span. */
    std::uint64_t unbalanced() const { return unbalanced_; }

    /** Spans begun but not yet ended, across all tracks. */
    int openSpans() const;

    /** Held events, oldest first. */
    std::vector<TraceEvent> events() const;

    /**
     * Append another sink's held events (oldest first) and process
     * names into this sink, preserving their pid/tid/timestamps.
     * Dropped and unbalanced tallies carry over so merged health
     * counters stay truthful. simulate_cli folds its per-model
     * rings together this way, in lineup order.
     */
    void mergeFrom(const TraceSink &other);

    /** Serialise to Chrome trace-event JSON. */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace() to @p path; fatal() on I/O failure. */
    void writeChromeTraceFile(const std::string &path) const;

  private:
    void push(TraceEvent e);

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< Next write slot.
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t unbalanced_ = 0;
    bool enabled_ = true;
    int pid_ = 0;
    std::map<int, std::string> processNames_;

    struct OpenSpan
    {
        std::string name;
        std::uint64_t ts;
    };
    /** Open-span stacks keyed by (pid, track). */
    std::map<std::pair<int, int>, std::vector<OpenSpan>> stacks_;
};

} // namespace unistc

/**
 * Compile-time switch: define UNISTC_TRACING_ENABLED=0 to compile all
 * trace sites out entirely (the runtime null-check is already ~free,
 * so the default build keeps them).
 */
#ifndef UNISTC_TRACING_ENABLED
#define UNISTC_TRACING_ENABLED 1
#endif

#if UNISTC_TRACING_ENABLED

/** True when @p sink is attached and recording. */
#define UNISTC_TRACE_ACTIVE(sink) \
    ((sink) != nullptr && (sink)->enabled())

#define UNISTC_TRACE_BEGIN(sink, track, name, ts) \
    do { \
        if (UNISTC_TRACE_ACTIVE(sink)) \
            (sink)->begin((track), (name), (ts)); \
    } while (0)

#define UNISTC_TRACE_END(sink, track, ts) \
    do { \
        if (UNISTC_TRACE_ACTIVE(sink)) \
            (sink)->end((track), (ts)); \
    } while (0)

#define UNISTC_TRACE_COMPLETE(sink, track, name, ts, dur) \
    do { \
        if (UNISTC_TRACE_ACTIVE(sink)) \
            (sink)->complete((track), (name), (ts), (dur)); \
    } while (0)

#define UNISTC_TRACE_INSTANT(sink, track, name, ts) \
    do { \
        if (UNISTC_TRACE_ACTIVE(sink)) \
            (sink)->instant((track), (name), (ts)); \
    } while (0)

#define UNISTC_TRACE_COUNTER(sink, name, ts, value) \
    do { \
        if (UNISTC_TRACE_ACTIVE(sink)) \
            (sink)->counter((name), (ts), (value)); \
    } while (0)

#else // !UNISTC_TRACING_ENABLED

#define UNISTC_TRACE_ACTIVE(sink) (false)
#define UNISTC_TRACE_BEGIN(sink, track, name, ts) ((void)0)
#define UNISTC_TRACE_END(sink, track, ts) ((void)0)
#define UNISTC_TRACE_COMPLETE(sink, track, name, ts, dur) ((void)0)
#define UNISTC_TRACE_INSTANT(sink, track, name, ts) ((void)0)
#define UNISTC_TRACE_COUNTER(sink, name, ts, value) ((void)0)

#endif // UNISTC_TRACING_ENABLED

#endif // UNISTC_OBS_TRACE_HH
