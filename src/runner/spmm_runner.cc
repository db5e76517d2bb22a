#include "runner/spmm_runner.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/partition.hh"

namespace unistc
{

namespace
{

/**
 * ceil(bCols/16) MM tasks per stored A block, in storage order; one
 * trace group per A block.
 */
class SpmmStream final : public TaskStream
{
  public:
    SpmmStream(const BbcMatrix &a, int b_cols)
        : a_(&a), bCols_(b_cols),
          bBlockCols_(static_cast<int>(ceilDiv(b_cols, kBlockSize))),
          cursor_(a), bj_(bBlockCols_)
    {
        // The dense B blocks (and their summaries) repeat across all A
        // blocks: build them once for the whole stream.
        bBlocks_.reserve(static_cast<std::size_t>(bBlockCols_));
        bMetas_.reserve(static_cast<std::size_t>(bBlockCols_));
        // The last one is partial-width when bCols % 16 != 0.
        for (int bj = 0; bj < bBlockCols_; ++bj) {
            bBlocks_.push_back(BlockPattern::dense(
                std::min(kBlockSize, bCols_ - bj * kBlockSize)));
            bMetas_.push_back(computePatternMeta(bBlocks_.back()));
        }
    }

    bool
    next(StreamedTask &out) override
    {
        if (bj_ >= bBlockCols_) {
            if (!cursor_.next())
                return false;
            pattern_ = a_->blockPattern(cursor_.blockIndex());
            aMeta_ = computePatternMeta(pattern_);
            bj_ = 0;
        }
        out.task = BlockTask::mm(
            pattern_, bBlocks_[static_cast<std::size_t>(bj_)],
            &aMeta_, &bMetas_[static_cast<std::size_t>(bj_)]);
        out.group = cursor_.blockIndex();
        ++bj_;
        return true;
    }

    std::string
    groupLabel(std::int64_t group) const override
    {
        return "T1 row #" + std::to_string(group);
    }

  private:
    const BbcMatrix *a_;
    int bCols_;
    int bBlockCols_;
    BlockRowCursor cursor_;
    BlockPattern pattern_;
    PatternMeta aMeta_;
    std::vector<BlockPattern> bBlocks_;
    std::vector<PatternMeta> bMetas_;
    int bj_; ///< Next B block column; >= bBlockCols_ forces advance.
};

} // namespace

SpmmPlan::SpmmPlan(const BbcMatrix &a, int b_cols)
    : a_(&a), bCols_(b_cols)
{
    UNISTC_ASSERT(b_cols > 0, "SpMM needs at least one B column");
}

std::unique_ptr<TaskStream>
SpmmPlan::stream() const
{
    return std::make_unique<SpmmStream>(*a_, bCols_);
}

RunResult
runSpmm(const StcModel &model, const BbcMatrix &a, int b_cols,
        const EnergyModel &energy, TraceSink *trace)
{
    return KernelPipeline::runOne(SpmmPlan(a, b_cols), model, energy,
                                  trace);
}

} // namespace unistc
