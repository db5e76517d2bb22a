/**
 * @file
 * Trapezoid (Yang et al., ISCA'24) — a versatile dense/sparse matrix
 * engine with three operating modes (Table VI):
 *   TrIP: 16 x (4 or 2) x 2,
 *   TrGT: 16 x 4 x (2 or 1),
 *   TrGS:  8 x 4 x (4 or 2).
 * Following §VI-C ("for multi-mode architectures ... we select their
 * best-performing configurations"), each T1 task's cycles are counted
 * under all three geometries and only the fastest is simulated. As
 * in the paper, this is a throughput-aligned adaptation rather than a
 * faithful reimplementation of the original accelerator.
 */

#ifndef UNISTC_STC_TRAPEZOID_HH
#define UNISTC_STC_TRAPEZOID_HH

#include <array>
#include <cstdint>

#include "stc/stc_model.hh"

namespace unistc
{

/** Trapezoid baseline (best-of-three-modes). */
class Trapezoid : public StcModel
{
  public:
    explicit Trapezoid(MachineConfig cfg) : StcModel(cfg) {}

    std::string name() const override { return "Trapezoid"; }

    std::unique_ptr<StcModel> clone() const override
    {
        return std::make_unique<Trapezoid>(cfg_);
    }

    NetworkConfig network() const override;

    /**
     * Cycles of @p task under TrIP, TrGT and TrGS at this precision,
     * counted in one walk over A's rows without simulating any mode.
     */
    std::array<std::uint64_t, 3> modeCycles(const BlockTask &task) const;

    void runBlock(const BlockTask &task, RunResult &res,
                  TraceSink *trace = nullptr) const override;
};

} // namespace unistc

#endif // UNISTC_STC_TRAPEZOID_HH
