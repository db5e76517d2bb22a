#include "stc/nv_dtc.hh"

#include "common/bitops.hh"
#include "obs/trace.hh"

namespace unistc
{

NetworkConfig
NvDtc::network() const
{
    // A dense tensor core routes operands on fixed wires: very cheap
    // per byte, modest fixed write fabric.
    NetworkConfig net;
    net.aFactor = 8.0;
    net.bFactor = 8.0;
    net.cFactor = 4.0;
    net.cNetUnits = 4;
    net.dynamicGating = false;
    return net;
}

void
NvDtc::runBlock(const BlockTask &task, RunResult &res,
                TraceSink *trace) const
{
    // The GPU front-end skips instructions with an empty operand
    // (coarse-grained skipping, §V-B); inside a non-empty task there
    // is no sparsity adaptation.
    if (task.a.empty() || task.b.empty())
        return;
    ++res.tasksT1;
    const std::uint64_t t0 = res.cycles;
    const int mac = cfg_.macCount;
    const int c_net_units = network().cNetUnits;
    const int n_ext = task.nExtent();
    // Dense T3 geometry: FP64 4x4x4 = 64 MACs, FP32 8x4x4 = 128 MACs.
    const bool fp64 = cfg_.precision == Precision::FP64;
    const int t3m = fp64 ? 4 : 8;
    const int t3n = 4;
    const int t3k = 4;

    const int m_steps = kBlockSize / t3m;
    const int n_steps = static_cast<int>(ceilDiv(n_ext, t3n));
    const int k_steps = kBlockSize / t3k;
    const std::uint16_t n_mask = task.isMv ? 0x0001u : 0xFFFFu;
    const PatternMeta &a_meta = task.aInfo();

    // Count words, built once per task. Byte mi of a_slices[k] counts
    // A column k's nonzeros in row slice mi; nibble ni of b_chunks[k]
    // counts B row k's nonzeros in column chunk ni.
    std::uint32_t a_slices[kBlockSize] = {};
    std::uint32_t b_chunks[kBlockSize] = {};
    for (int k = 0; k < kBlockSize; ++k) {
        std::uint32_t a = a_meta.cols[k];
        a -= (a >> 1) & 0x5555u;
        a = (a & 0x3333u) + ((a >> 2) & 0x3333u);
        if (fp64) {
            a = (a | (a << 8)) & 0x00FF00FFu;
            a = (a | (a << 4)) & 0x0F0F0F0Fu;
        } else {
            a = (a + (a >> 4)) & 0x0F0Fu;
        }
        a_slices[k] = a;
        std::uint32_t b = task.b.rowBits(k) & n_mask;
        b -= (b >> 1) & 0x5555u;
        b_chunks[k] = (b & 0x3333u) + ((b >> 2) & 0x3333u);
    }

    // Every (ki, ni) dense T3 sub-cube, for all row slices at once:
    // lane mi sums a(k, mi) x b(k, ni) over the sub-cube's K levels,
    // at most 4 x 8 x 4 = 128, so the byte lanes never carry.
    std::uint64_t b_nnz = 0;
    for (int ki = 0; ki < k_steps; ++ki) {
        for (int ni = 0; ni < n_steps; ++ni) {
            std::uint32_t eff = 0;
            for (int k = ki * t3k; k < (ki + 1) * t3k; ++k) {
                const std::uint32_t b_cnt = (b_chunks[k] >> (4 * ni)) & 0xFu;
                eff += b_cnt * a_slices[k];
                b_nnz += b_cnt;
            }
            for (int mi = 0; mi < m_steps; ++mi) {
                res.recordCycle(mac,
                                static_cast<int>((eff >> (8 * mi)) & 0xFFu),
                                0, c_net_units);
            }
        }
    }
    res.tasksT3 += static_cast<std::uint64_t>(m_steps) * n_steps * k_steps;

    // Dense fetch: every operand slot of every sub-cube is read
    // whether or not it holds a nonzero. Each A slot is read once per
    // column chunk, each B slot once per row slice.
    const std::uint64_t a_reads =
        static_cast<std::uint64_t>(n_steps) * a_meta.nnz;
    const std::uint64_t b_reads = static_cast<std::uint64_t>(m_steps) * b_nnz;
    res.traffic.readsA += a_reads;
    res.traffic.wastedA +=
        static_cast<std::uint64_t>(n_steps) * kBlockSize * kBlockSize -
        a_reads;
    res.traffic.readsB += b_reads;
    res.traffic.wastedB +=
        static_cast<std::uint64_t>(m_steps) * kBlockSize * n_ext - b_reads;

    // The dense accumulator writes the whole C block back once.
    res.traffic.writesC +=
        static_cast<std::uint64_t>(kBlockSize) * n_ext;

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                          task.isMv ? "T1 MV (dense)" : "T1 MM (dense)",
                          t0, res.cycles - t0);
}

} // namespace unistc
