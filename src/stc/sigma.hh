/**
 * @file
 * SIGMA (Qin et al., HPCA'20) — flexible-interconnect GEMM engine,
 * throughput-aligned per §VI-C. Table VI geometry: 1(M) x (8 or 4)(N)
 * x 16(K). A's nonzeros, packed row-major across row boundaries, are
 * held stationary in the 16 K lanes while B columns stream N at a
 * time. SIGMA's modes are either single-side sparse (B streamed
 * dense — zeros of B burn lanes) or pay heavy transmission overhead,
 * which is what limits it against dual-side designs (§VI-C-1).
 */

#ifndef UNISTC_STC_SIGMA_HH
#define UNISTC_STC_SIGMA_HH

#include "stc/stc_model.hh"

namespace unistc
{

/** Flexible reduction-tree baseline. */
class Sigma : public StcModel
{
  public:
    explicit Sigma(MachineConfig cfg) : StcModel(cfg) {}

    std::string name() const override { return "SIGMA"; }

    std::unique_ptr<StcModel> clone() const override
    {
        return std::make_unique<Sigma>(cfg_);
    }

    NetworkConfig network() const override;

    void runBlock(const BlockTask &task, RunResult &res,
                  TraceSink *trace = nullptr) const override;
};

} // namespace unistc

#endif // UNISTC_STC_SIGMA_HH
