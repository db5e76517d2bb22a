/**
 * @file
 * CheckpointSession: the per-run --resume state — a checkpoint file
 * loaded at startup plus an append handle for newly finished jobs
 * (moved out of bench/bench_common.hh into the src/driver/ library).
 * lookup() matches a runKernel() call against the checkpoint by
 * (kernel, model, matrix) key and occurrence count — the Nth call
 * with a given key maps to the Nth checkpointed entry with that
 * key — so bodies that run the same combination repeatedly resume
 * correctly, and the plan and replay passes of a --jobs run (which
 * both traverse the body) see identical answers after resetCursor().
 */

#ifndef UNISTC_DRIVER_CHECKPOINT_SESSION_HH
#define UNISTC_DRIVER_CHECKPOINT_SESSION_HH

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "robust/checkpoint.hh"
#include "runner/report.hh"

namespace unistc
{
namespace driver
{

/** The --resume lookup/append state of one ExecutionContext. */
class CheckpointSession
{
  public:
    CheckpointSession() = default;

    CheckpointSession(const CheckpointSession &) = delete;
    CheckpointSession &operator=(const CheckpointSession &) = delete;

    /** Enable resume against @p path: load it, then append to it. */
    void configure(const std::string &path);

    bool enabled() const { return enabled_; }

    /**
     * Checkpointed result for the next occurrence of this key, or
     * null when the job still has to run. Advances the occurrence
     * cursor either way.
     */
    const CheckpointEntry *lookup(Kernel kernel,
                                  const std::string &model,
                                  const std::string &matrix);

    /** Append a newly computed result (flushes immediately). */
    void append(Kernel kernel, const std::string &model,
                const std::string &matrix, const RunResult &result);

    /**
     * Restart occurrence counting — called between the plan and
     * replay passes so both consume the checkpoint identically.
     */
    void resetCursor();

    /**
     * Drop all resume state (close the writer, forget the log) so a
     * long-lived ExecutionContext can serve a later request with a
     * different — or no — checkpoint file.
     */
    void reset();

  private:
    bool enabled_ = false;
    std::mutex mu_;
    std::unique_ptr<CheckpointLog> log_;
    CheckpointWriter writer_;
    std::map<std::string, std::size_t> seen_;
};

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_CHECKPOINT_SESSION_HH
