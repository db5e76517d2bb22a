#include "runner/spgemm_runner.hh"

#include "common/logging.hh"
#include "engine/kernel_pipeline.hh"

namespace unistc
{

namespace
{

/** Pattern summaries of every stored block of one matrix. */
std::vector<PatternMeta>
metasOf(const std::vector<BlockPattern> &patterns)
{
    std::vector<PatternMeta> metas;
    metas.reserve(patterns.size());
    for (const BlockPattern &p : patterns)
        metas.push_back(computePatternMeta(p));
    return metas;
}

/**
 * Resumable three-level walk of Algorithm 2: C block row bi -> stored
 * A block ai in row bi -> stored B block bj in B's block row
 * colIdx(ai). One trace group per C block row. Block patterns and
 * their summaries are built once per stream, and once for both
 * operands of C = A·A — so a multi-architecture pipeline pays the
 * reconstruction once, not once per model.
 */
class SpgemmStream final : public TaskStream
{
  public:
    SpgemmStream(const BbcMatrix &a, const BbcMatrix &b)
        : a_(&a), b_(&b), aPatterns_(allBlockPatterns(a)),
          bOwnPatterns_(&b == &a ? std::vector<BlockPattern>()
                                 : allBlockPatterns(b)),
          aMetas_(metasOf(aPatterns_)),
          bOwnMetas_(metasOf(bOwnPatterns_)),
          bPatterns_(&b == &a ? &aPatterns_ : &bOwnPatterns_),
          bMetas_(&b == &a ? &aMetas_ : &bOwnMetas_)
    {
        enterA();
    }

    bool
    next(StreamedTask &out) override
    {
        for (; bi_ < a_->blockRows(); nextRow()) {
            for (; ai_ < a_->rowPtr()[bi_ + 1]; nextA()) {
                const auto ai = static_cast<std::size_t>(ai_);
                for (; bj_ < bEnd_; ++bj_) {
                    const auto bj = static_cast<std::size_t>(bj_);
                    // Software bitmap check (Algorithm 2, line 13):
                    // the pair makes a product iff some k is a
                    // nonzero column of the A block and a nonzero row
                    // of the B block. B's row mask comes from its row
                    // words, not from a mask vector kept beside the
                    // summaries: such vectors raised peak RSS across
                    // repeated runs (docs/PERFORMANCE.md).
                    if ((aCols_ & (*bPatterns_)[bj].nonzeroRows()) == 0)
                        continue;
                    out.task = BlockTask::mm(
                        aPatterns_[ai], (*bPatterns_)[bj],
                        &aMetas_[ai], &(*bMetas_)[bj]);
                    out.group = bi_;
                    ++bj_;
                    return true;
                }
            }
        }
        return false;
    }

    std::string
    groupLabel(std::int64_t group) const override
    {
        return "C block row #" + std::to_string(group);
    }

  private:
    /**
     * Bind bj_/bEnd_ to the B block row of the current A block, and
     * aCols_ to its nonzero columns.
     */
    void
    enterA()
    {
        if (bi_ < a_->blockRows() && ai_ < a_->rowPtr()[bi_ + 1]) {
            const int bk = a_->colIdx()[ai_];
            bj_ = b_->rowPtr()[bk];
            bEnd_ = b_->rowPtr()[bk + 1];
            aCols_ =
                aPatterns_[static_cast<std::size_t>(ai_)].nonzeroCols();
        } else {
            bj_ = bEnd_ = 0;
        }
    }

    void
    nextA()
    {
        ++ai_;
        enterA();
    }

    /** ai_ already sits at rowPtr[bi_ + 1] == start of the next row. */
    void
    nextRow()
    {
        ++bi_;
        enterA();
    }

    const BbcMatrix *a_;
    const BbcMatrix *b_;
    std::vector<BlockPattern> aPatterns_;
    std::vector<BlockPattern> bOwnPatterns_; ///< Empty when B is A.
    std::vector<PatternMeta> aMetas_;
    std::vector<PatternMeta> bOwnMetas_;     ///< Empty when B is A.
    const std::vector<BlockPattern> *bPatterns_;
    const std::vector<PatternMeta> *bMetas_;
    int bi_ = 0;            ///< Current C block row.
    std::int64_t ai_ = 0;   ///< Current stored A block (global).
    std::int64_t bj_ = 0;   ///< Current stored B block (global).
    std::int64_t bEnd_ = 0; ///< End of the current B block row.
    std::uint16_t aCols_ = 0; ///< Nonzero columns of block ai_.
};

} // namespace

SpgemmPlan::SpgemmPlan(const BbcMatrix &a, const BbcMatrix &b)
    : a_(&a), b_(&b)
{
    UNISTC_ASSERT(a.cols() == b.rows(), "SpGEMM shape mismatch");
}

std::unique_ptr<TaskStream>
SpgemmPlan::stream() const
{
    return std::make_unique<SpgemmStream>(*a_, *b_);
}

RunResult
runSpgemm(const StcModel &model, const BbcMatrix &a,
          const BbcMatrix &b, const EnergyModel &energy,
          TraceSink *trace)
{
    return KernelPipeline::runOne(SpgemmPlan(a, b), model, energy,
                                  trace);
}

} // namespace unistc
