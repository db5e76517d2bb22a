#include "apps/dnn/dnn_driver.hh"

#include "bbc/bbc_matrix.hh"
#include "corpus/dlmc.hh"
#include "corpus/generators.hh"
#include "isa/uwmma.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "sm/sm_model.hh"

namespace unistc
{

namespace
{

/**
 * A dense @p rows x @p cols weight matrix with every value 1.0: the
 * pattern genPrunedWeights() keeps at 0% sparsity, without drawing
 * its values.
 */
CsrMatrix
denseWeights(int rows, int cols)
{
    std::vector<std::int64_t> row_ptr{0};
    std::vector<int> col_idx;
    row_ptr.reserve(static_cast<std::size_t>(rows) + 1);
    col_idx.reserve(static_cast<std::size_t>(rows) * cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c)
            col_idx.push_back(c);
        row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
    }
    std::vector<double> vals(col_idx.size(), 1.0);
    return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(vals));
}

} // namespace

RunResult
runDnnLayer(const StcModel &model, const DnnLayer &layer,
            double weight_sparsity, ActivationMode mode,
            double activation_sparsity, std::uint64_t seed,
            const EnergyModel &energy)
{
    const CsrMatrix weights =
        genPrunedWeights(layer.m, layer.k, weight_sparsity, seed);
    const BbcMatrix w_bbc = BbcMatrix::fromCsr(weights);

    if (mode == ActivationMode::Dense)
        return runSpmm(model, w_bbc, layer.n, energy);

    // Sparse activations: K x N activation matrix with the given
    // zero fraction (post-ReLU statistics).
    const CsrMatrix acts = genRandomUniform(
        layer.k, layer.n, 1.0 - activation_sparsity, seed ^ 0xA5A5u);
    const BbcMatrix a_bbc = BbcMatrix::fromCsr(acts);
    return runSpgemm(model, w_bbc, a_bbc, energy);
}

InferenceLatency
estimateInferenceLatency(const std::vector<DnnLayerRep> &stack,
                         double weight_sparsity,
                         const MachineConfig &cfg, int num_sms,
                         int stc_per_sm, int warps,
                         std::uint64_t seed)
{
    InferenceLatency out;
    std::uint64_t total_busy = 0;

    // Layers execute back to back (each consumes the previous one's
    // activations); within a layer all activation tiles are
    // independent and spread across the device.
    for (const auto &rep : stack) {
        // Only the weight pattern reaches traceSpmm, and at 0% sparsity
        // every weight survives. The seed advances either way, so the
        // sparse points keep their draws.
        const std::uint64_t layer_seed = seed++;
        const CsrMatrix weights = weight_sparsity == 0.0
            ? denseWeights(rep.layer.m, rep.layer.k)
            : genPrunedWeights(rep.layer.m, rep.layer.k, weight_sparsity,
                               layer_seed);
        const BbcMatrix bbc = BbcMatrix::fromCsr(weights);
        const auto one_tile = traceSpmm(bbc, rep.layer.n, cfg);
        // Replicate the per-tile stream for every activation tile.
        std::vector<TaskBundle> bundles;
        bundles.reserve(one_tile.size() * rep.repeats);
        for (int t = 0; t < rep.repeats; ++t) {
            bundles.insert(bundles.end(), one_tile.begin(),
                           one_tile.end());
        }
        const SmStats s = simulateDevice(
            bundles, SmConfig{stc_per_sm, warps}, num_sms);
        out.makespanCycles += s.makespanCycles;
        out.bundles += s.tasksIssued;
        total_busy += s.busyUnitCycles;
    }

    out.latencyUs =
        static_cast<double>(out.makespanCycles) / cfg.freqGhz / 1e3;
    const double capacity = static_cast<double>(out.makespanCycles) *
        num_sms * stc_per_sm;
    out.unitUtilisation =
        capacity > 0.0 ? static_cast<double>(total_busy) / capacity
                       : 0.0;
    return out;
}

} // namespace unistc
