/**
 * @file
 * Abstract sparse-tensor-core model. Every architecture (NV-DTC,
 * DS-STC, RM-STC, GAMMA, SIGMA, Trapezoid, Uni-STC) consumes the same
 * T1 block-task stream the software dataflow (Algorithms 1 and 2)
 * produces and reports cycles, per-cycle utilisation, operand traffic
 * and scheduling events into a RunResult.
 */

#ifndef UNISTC_STC_STC_MODEL_HH
#define UNISTC_STC_STC_MODEL_HH

#include <memory>
#include <string>

#include "bbc/block_pattern.hh"
#include "bbc/pattern_meta.hh"
#include "sim/config.hh"
#include "sim/network.hh"
#include "sim/result.hh"

namespace unistc
{

class TraceSink;

/**
 * One T1 task: C += A x B over 16x16 blocks. Matrix-vector kernels
 * (Algorithm 1) embed the x segment as a 16x1 block via
 * vectorAsBlock(), flagged by isMv so models can apply their MV
 * instruction variant (N = 1 lane population).
 *
 * The derived pattern summaries (column masks, tile bitmaps, per-lane
 * nonzero counts) are memoized on the task: the first model to call
 * aInfo()/bInfo() computes them, and every later model in a lineup
 * fan-out (--arch a,b,c hands the same task to each model slot in
 * turn) reuses the cached copy. Runners that stream many tasks over
 * the same block can prime the cache at construction so even the
 * first model skips the computation.
 */
struct BlockTask
{
    BlockPattern a;  ///< Structural pattern of the A block.
    BlockPattern b;  ///< Pattern of the B block (or x as a column).
    bool isMv = false;

    /** Effective N extent: 1 for MV tasks, 16 for MM tasks. */
    int nExtent() const { return isMv ? 1 : kBlockSize; }

    /** Structural pattern of the C update, derived on demand. */
    BlockPattern cPattern() const { return blockProductPattern(a, b); }

    /** Cached summaries of the A pattern (computed on first use). */
    const PatternMeta &
    aInfo() const
    {
        if (!aReady_) {
            aMeta_ = computePatternMeta(a);
            aReady_ = true;
        }
        return aMeta_;
    }

    /** Cached summaries of the B pattern (computed on first use). */
    const PatternMeta &
    bInfo() const
    {
        if (!bReady_) {
            bMeta_ = computePatternMeta(b);
            bReady_ = true;
        }
        return bMeta_;
    }

    /** Build an MM task; summaries are computed lazily. */
    static BlockTask mm(const BlockPattern &a, const BlockPattern &b);

    /** MM task with pre-computed summaries (either may be null). */
    static BlockTask mm(const BlockPattern &a, const BlockPattern &b,
                        const PatternMeta *a_meta,
                        const PatternMeta *b_meta);

    /** Build an MV task from A and the x-segment mask. */
    static BlockTask mv(const BlockPattern &a, std::uint16_t x_mask);

    /** MV task with pre-computed summaries (either may be null). */
    static BlockTask mv(const BlockPattern &a, std::uint16_t x_mask,
                        const PatternMeta *a_meta,
                        const PatternMeta *b_meta);

  private:
    mutable PatternMeta aMeta_;
    mutable PatternMeta bMeta_;
    mutable bool aReady_ = false;
    mutable bool bReady_ = false;
};

/** Architecture model interface. */
class StcModel
{
  public:
    explicit StcModel(MachineConfig cfg) : cfg_(cfg) {}
    virtual ~StcModel() = default;

    StcModel(const StcModel &) = delete;
    StcModel &operator=(const StcModel &) = delete;

    /** Architecture name as printed in tables ("Uni-STC", ...). */
    virtual std::string name() const = 0;

    /**
     * Deep copy preserving every construction parameter (including
     * non-config knobs like Uni-STC's task ordering). The sweep
     * executor clones models so each parallel job simulates on its
     * own instance.
     */
    virtual std::unique_ptr<StcModel> clone() const = 0;

    /** Interconnect description used by the energy model. */
    virtual NetworkConfig network() const = 0;

    /**
     * Simulate one T1 block task and accumulate cycles, utilisation
     * histogram, traffic and scheduling counters into @p res.
     * Implementations must uphold:
     *  - products added == blockProductCount(a, b);
     *  - per-cycle effective products <= cfg().macCount.
     *
     * @param trace optional event sink; when attached, models emit
     *        per-stage spans against the res.cycles virtual clock.
     */
    virtual void runBlock(const BlockTask &task, RunResult &res,
                          TraceSink *trace = nullptr) const = 0;

    const MachineConfig &config() const { return cfg_; }

  protected:
    MachineConfig cfg_;
};

using StcModelPtr = std::unique_ptr<StcModel>;

} // namespace unistc

#endif // UNISTC_STC_STC_MODEL_HH
