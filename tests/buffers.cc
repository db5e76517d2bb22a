#include "buffers.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

namespace unistc
{

namespace
{

/** Lv1 + per-tile Lv2 bytes of one operand block. */
int
operandMetaBytes(const BlockPattern &p, bool with_valptr)
{
    const int tiles = popcount16(p.tileBitmap());
    return 2 + tiles * 2 + (with_valptr ? tiles : 0);
}

} // namespace

int
metaBufferBytesMm(const BlockPattern &a, const BlockPattern &b)
{
    const BlockPattern c = blockProductPattern(a, b);
    return operandMetaBytes(a, /*with_valptr=*/true) +
        operandMetaBytes(b, /*with_valptr=*/true) +
        operandMetaBytes(c, /*with_valptr=*/false);
}

int
metaBufferBytesMv(const BlockPattern &a)
{
    // A's bitmaps + offsets plus the 2-byte x segment mask and the
    // 2-byte y result mask.
    return operandMetaBytes(a, /*with_valptr=*/true) + 2 + 2;
}

int
aBufferBytes(const BlockPattern &a, const MachineConfig &cfg)
{
    return a.nnz() * cfg.bytesPerValue();
}

int
accumBufferBytes(const BlockPattern &a, const BlockPattern &b,
                 const MachineConfig &cfg)
{
    const TileTaskList tasks = generateTileTasks(
        computePatternMeta(a), computePatternMeta(b), kTilesPerEdge,
        TaskOrdering::OuterProduct);
    if (tasks.empty())
        return 0;
    int worst = 0;
    forEachSdpuCycle(
        std::span<const TileTask>(tasks.data(), tasks.size()),
        cfg.numDpgs, cfg.macCount, /*check_conflicts=*/true,
        [&](const SdpuCycleView &cycle) {
            int segments = 0;
            for (const TileTask *t : cycle.executed)
                segments += t->segments();
            worst = std::max(worst, segments);
        });
    return worst * cfg.bytesPerValue();
}

} // namespace unistc
