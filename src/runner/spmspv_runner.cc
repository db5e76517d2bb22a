#include "runner/spmspv_runner.hh"

#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/partition.hh"

namespace unistc
{

std::vector<std::uint16_t>
segmentMasks(const SparseVector &x)
{
    const int segments =
        static_cast<int>(ceilDiv(x.size(), kBlockSize));
    std::vector<std::uint16_t> masks(segments, 0);
    for (int i : x.idx()) {
        masks[i / kBlockSize] = setBit(masks[i / kBlockSize],
                                       i % kBlockSize);
    }
    return masks;
}

namespace
{

/**
 * Row-ordered walk over stored A blocks, gated by the x-segment
 * bitmap of each block column. The stream keeps its own copy of the
 * masks: like every plan's stream it borrows only the operands, so
 * it may outlive the plan that opened it.
 */
class SpmspvStream final : public TaskStream
{
  public:
    SpmspvStream(const BbcMatrix &a, std::vector<std::uint16_t> masks)
        : a_(&a), masks_(std::move(masks)), cursor_(a)
    {
    }

    bool
    next(StreamedTask &out) override
    {
        while (cursor_.next()) {
            const std::int64_t blk = cursor_.blockIndex();
            const std::uint16_t mask =
                masks_[static_cast<std::size_t>(a_->colIdx()[blk])];
            if (!mask)
                continue;
            const BlockPattern pattern = a_->blockPattern(blk);
            // Software bitmap check: skip blocks with no index match.
            if (blockMvProductCount(pattern, mask) == 0)
                continue;
            // Prime the pattern summaries for the surviving task so
            // every model in a lineup reuses them.
            const PatternMeta a_meta = computePatternMeta(pattern);
            const PatternMeta x_meta =
                computePatternMeta(vectorAsBlock(mask));
            out.task = BlockTask::mv(pattern, mask, &a_meta, &x_meta);
            out.group = blk;
            return true;
        }
        return false;
    }

  private:
    const BbcMatrix *a_;
    std::vector<std::uint16_t> masks_;
    BlockRowCursor cursor_;
};

} // namespace

SpmspvPlan::SpmspvPlan(const BbcMatrix &a, const SparseVector &x)
    : a_(&a), masks_(segmentMasks(x))
{
    UNISTC_ASSERT(x.size() == a.cols(), "SpMSpV shape mismatch");
}

std::unique_ptr<TaskStream>
SpmspvPlan::stream() const
{
    return std::make_unique<SpmspvStream>(*a_, masks_);
}

RunResult
runSpmspv(const StcModel &model, const BbcMatrix &a,
          const SparseVector &x, const EnergyModel &energy,
          TraceSink *trace)
{
    return KernelPipeline::runOne(SpmspvPlan(a, x), model, energy,
                                  trace);
}

} // namespace unistc
