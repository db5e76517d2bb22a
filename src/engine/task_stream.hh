/**
 * @file
 * Lazy T1 task stream — the paper's one load-bearing abstraction: the
 * software dataflow (Algorithms 1 and 2 over BBC) produces a single
 * stream of T1 block tasks, and *every* kernel and *every*
 * architecture consumes that same stream. A TaskStream is a pull
 * iterator: tasks are generated on demand, one at a time, so a
 * multi-architecture run can fan each task out to N models without
 * ever materialising the stream (see engine/kernel_pipeline.hh).
 *
 * Tasks carry a monotonically non-decreasing group id mirroring the
 * loop structure of the generating algorithm (one stored A block for
 * SpMV/SpMM, one C block row for SpGEMM). The pipeline uses groups
 * to emit the same runner-track trace spans the eager runners used
 * to; groupLabel() is only consulted when a trace sink is attached,
 * so the untraced hot path never builds label strings. A stream still
 * yields every task, repeats included; StreamedTask::repeats only
 * tells the consumer which ones it may count without simulating.
 */

#ifndef UNISTC_ENGINE_TASK_STREAM_HH
#define UNISTC_ENGINE_TASK_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stc/stc_model.hh"

namespace unistc
{

/** One generated T1 task plus its trace-grouping key. */
struct StreamedTask
{
    BlockTask task;

    /**
     * Trace-span group: non-decreasing across the stream; all tasks
     * sharing a group id are covered by one runner-track span.
     */
    std::int64_t group = 0;

    /**
     * How many of the items right after this one carry the same task
     * (equal a, b and isMv), so a consumer may simulate it once and
     * count it repeats + 1 times. The repeating items carry 0. Only
     * SpMM marks repeats: the full-width dense B block columns of one
     * A block.
     */
    std::uint32_t repeats = 0;
};

/**
 * Pull-based iterator over the T1 tasks of one kernel invocation.
 * Streams are single-use: next() yields each task exactly once, in
 * the deterministic order Algorithms 1/2 prescribe.
 */
class TaskStream
{
  public:
    virtual ~TaskStream() = default;

    /** Generate the next task; false when the stream is exhausted. */
    virtual bool next(StreamedTask &out) = 0;

    /**
     * Human-readable label for @p group's runner-track trace span.
     * Called only when tracing is active. Default: "T1 #<group>".
     */
    virtual std::string groupLabel(std::int64_t group) const;
};

} // namespace unistc

#endif // UNISTC_ENGINE_TASK_STREAM_HH
