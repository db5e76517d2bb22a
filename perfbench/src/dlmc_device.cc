/**
 * @file
 * dlmc_device: the bench_ext_dnn_e2e projection at 70% and 98% weight
 * sparsity. Per layer it makes the same public calls, in the same
 * order, as estimateInferenceLatency(): genPrunedWeights ->
 * BbcMatrix::fromCsr -> traceSpmm (replicated per activation tile) ->
 * simulateDevice on 108 SMs x 4 Uni-STC units. The parity check
 * compares the result with estimateInferenceLatency() itself.
 */

#include <cstdio>

#include "apps/dnn/dnn_driver.hh"
#include "apps/dnn/layers.hh"
#include "bbc/bbc_matrix.hh"
#include "bench.hh"
#include "corpus/dlmc.hh"
#include "digest.hh"
#include "isa/uwmma.hh"
#include "sm/sm_model.hh"

namespace perfbench
{

namespace
{

using namespace unistc;

const std::vector<double> kSparsities = {0.7, 0.98};
constexpr int kSms = 108;
constexpr int kStcPerSm = 4;
constexpr int kWarps = 8;

struct Network
{
    std::string name;
    std::vector<DnnLayerRep> stack;
};

std::vector<Network>
networks(const Options &o)
{
    if (o.small)
        return {{"Transformer-base (2 enc. layers)",
                 transformerFullStack(2, 2)}};
    return {{"ResNet-50 (53 convs, 224x224)", resnet50FullStack()},
            {"Transformer-base (6 enc. layers)",
             transformerFullStack(6, 2)}};
}

/**
 * The bench seeds each network from 4040 and steps by 1000 per
 * sparsity point, the dense 0% point included; the first sparse
 * point therefore starts at seed + 1000.
 */
std::uint64_t
pointSeed(const Options &o, std::size_t point)
{
    return o.seed + 1000 * (point + 1);
}

std::string
describe(const Network &net, double sparsity,
         const InferenceLatency &lat)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s at %.0f%%: %llu bundles, %llu cycles, "
                  "%.17g us, utilisation %.17g",
                  net.name.c_str(), sparsity * 100.0,
                  static_cast<unsigned long long>(lat.bundles),
                  static_cast<unsigned long long>(lat.makespanCycles),
                  lat.latencyUs, lat.unitUtilisation);
    return line;
}

PassResult
pass(const Options &o, Recorder &rec, ModelClock *)
{
    PassResult out;
    const MachineConfig cfg = MachineConfig::fp32();
    out.firstSpan = rec.spans().size();
    const int root = rec.begin("pass");
    const std::vector<Network> nets = networks(o);
    Digest tail;
    for (const Network &net : nets) {
        for (std::size_t point = 0; point < kSparsities.size(); ++point) {
            const double sparsity = kSparsities[point];
            std::uint64_t seed = pointSeed(o, point);
            InferenceLatency lat;
            std::uint64_t total_busy = 0;
            for (std::size_t li = 0; li < net.stack.size(); ++li) {
                const DnnLayer &layer = net.stack[li].layer;
                const int repeats = net.stack[li].repeats;
                const CsrMatrix weights = rec.span("corpus.generate", [&] {
                    return genPrunedWeights(layer.m, layer.k, sparsity,
                                            seed++);
                });
                const BbcMatrix bbc = rec.span(
                    "bbc.from_csr", [&] { return BbcMatrix::fromCsr(weights); });
                // One activation tile's stream, replicated per tile.
                const std::vector<TaskBundle> bundles =
                    rec.span("isa.trace_spmm", [&] {
                        const auto one_tile = traceSpmm(bbc, layer.n, cfg);
                        std::vector<TaskBundle> all;
                        all.reserve(one_tile.size() * repeats);
                        for (int t = 0; t < repeats; ++t) {
                            all.insert(all.end(), one_tile.begin(),
                                       one_tile.end());
                        }
                        return all;
                    });
                const SmStats s = rec.span("sm.device", [&] {
                    return simulateDevice(
                        bundles, SmConfig{kStcPerSm, kWarps}, kSms);
                });
                lat.makespanCycles += s.makespanCycles;
                lat.bundles += s.tasksIssued;
                total_busy += s.busyUnitCycles;

                out.counts["corpus.matrices"] += 1;
                out.counts["corpus.nnz"] +=
                    static_cast<double>(weights.nnz());
                out.counts["bbc.blocks"] +=
                    static_cast<double>(bbc.numBlocks());
                out.counts["isa.bundles"] +=
                    static_cast<double>(bundles.size());
                out.taskEvals += static_cast<double>(bundles.size());

                Op op;
                op.name = net.name + "/" + std::to_string(point) + "/" +
                    std::to_string(li) + ":" + layer.name;
                Digest d;
                d.add(s.makespanCycles);
                d.add(s.busyUnitCycles);
                d.add(s.tasksIssued);
                op.digest = d.value();
                out.ops.push_back(std::move(op));
                if (s.tasksIssued != bundles.size()) {
                    out.failures.push_back(
                        out.ops.back().name + ": " +
                        std::to_string(s.tasksIssued) + " of " +
                        std::to_string(bundles.size()) +
                        " bundles issued");
                }
            }
            // The roll-up of estimateInferenceLatency().
            lat.latencyUs = static_cast<double>(lat.makespanCycles) /
                cfg.freqGhz / 1e3;
            const double capacity =
                static_cast<double>(lat.makespanCycles) * kSms * kStcPerSm;
            lat.unitUtilisation = capacity > 0.0
                ? static_cast<double>(total_busy) / capacity
                : 0.0;
            out.counts["sm.makespan_cycles"] +=
                static_cast<double>(lat.makespanCycles);
            tail.add(lat.makespanCycles);
            tail.add(lat.latencyUs);
            tail.add(lat.unitUtilisation);
            tail.add(lat.bundles);
            out.benchLines.push_back(describe(net, sparsity, lat));
        }
    }
    rec.end(root);
    out.tailDigest = tail.value();
    return out;
}

std::vector<std::string>
parity(const Options &o, const PassResult &measured)
{
    std::vector<std::string> mismatches;
    std::size_t line = 0;
    for (const Network &net : networks(o)) {
        for (std::size_t point = 0; point < kSparsities.size(); ++point) {
            const InferenceLatency lat = estimateInferenceLatency(
                net.stack, kSparsities[point], MachineConfig::fp32(),
                kSms, kStcPerSm, kWarps, pointSeed(o, point));
            const std::string want = describe(net, kSparsities[point], lat);
            if (line >= measured.benchLines.size() ||
                measured.benchLines[line] != want)
                mismatches.push_back("estimateInferenceLatency: " + want);
            ++line;
        }
    }
    return mismatches;
}

} // namespace

const Workload &
dlmcDevice()
{
    static const Workload w{
        "dlmc_device",
        4040,
        {"isa.trace_spmm", "sm.device"},
        &pass,
        nullptr,
        MachineConfig::fp32(),
        &parity,
    };
    return w;
}

} // namespace perfbench
