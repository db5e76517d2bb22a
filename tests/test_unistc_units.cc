/**
 * @file
 * Unit tests for Uni-STC's functional units: TMS task generation and
 * ordering, T3 task counts, DPG T4 expansion (including the paper's
 * worked '49' example), broadcast-range bounds of the Z-shaped fill,
 * and SDPU packing with write-conflict arbitration. The TMS and the
 * SDPU packer are also checked against test-local copies of their
 * earlier slot-scan and copy-and-swap implementations, and the T3
 * product word against its element-by-element definition.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "unistc/dpg.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

namespace unistc
{
namespace
{

// ---- Reference implementations -------------------------------------
// A TMS that probes all 64 (i, j, k) slots and counts each tile pair
// row by row, and an SDPU packer that rebuilds its pending list every
// cycle. The live-tile walk, the product-word counts and the
// pending-mask packer must reproduce them exactly.

std::uint16_t
refRep4(std::uint16_t v)
{
    return static_cast<std::uint16_t>(v * 0x1111u);
}

std::uint16_t
refNonzeroNibbles4(std::uint16_t v)
{
    return static_cast<std::uint16_t>(
        (v | (v >> 1) | (v >> 2) | (v >> 3)) & 0x1111u);
}

std::uint16_t
refLiveNibbleMask4(std::uint16_t v)
{
    return static_cast<std::uint16_t>(refNonzeroNibbles4(v) * 0xFu);
}

std::uint16_t
refBColumns(std::uint16_t b_tile, int n_cols)
{
    const std::uint32_t keep = (1u << (4 * n_cols)) - 1u;
    return static_cast<std::uint16_t>(transpose4x4(b_tile) & keep);
}

int
refTileProductCount(std::uint16_t a_tile, std::uint16_t b_tile,
                    int n_cols)
{
    const std::uint16_t b_cols = refBColumns(b_tile, n_cols);
    int total = 0;
    for (int r = 0; r < 4; ++r)
        total += popcount16(
            static_cast<std::uint16_t>(refRep4(row4(a_tile, r)) & b_cols));
    return total;
}

int
refTileSegmentCount(std::uint16_t a_tile, std::uint16_t b_tile,
                    int n_cols)
{
    const std::uint16_t b_cols = refBColumns(b_tile, n_cols);
    int segs = 0;
    for (int r = 0; r < 4; ++r)
        segs += popcount16(refNonzeroNibbles4(
            static_cast<std::uint16_t>(refRep4(row4(a_tile, r)) & b_cols)));
    return segs;
}

void
refActiveOperands(std::uint16_t a_tile, std::uint16_t b_tile,
                  int n_cols, int &a_elems, int &b_elems)
{
    const std::uint16_t col_mask =
        refRep4(static_cast<std::uint16_t>((1u << n_cols) - 1u));
    const std::uint16_t b_masked =
        static_cast<std::uint16_t>(b_tile & col_mask);
    const std::uint16_t a_t = transpose4x4(a_tile);
    a_elems = popcount16(
        static_cast<std::uint16_t>(a_t & refLiveNibbleMask4(b_masked)));
    b_elems = popcount16(
        static_cast<std::uint16_t>(b_masked & refLiveNibbleMask4(a_t)));
}

/** The product word by its definition, one (r, c, k) triple at a time. */
std::uint64_t
refProductBits(std::uint16_t a_tile, std::uint16_t b_tile, int n_cols)
{
    std::uint64_t bits = 0;
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < n_cols; ++c) {
            for (int k = 0; k < 4; ++k) {
                if (testBit(a_tile, bit4x4(r, k)) &&
                    testBit(b_tile, bit4x4(k, c)))
                    bits |= std::uint64_t{1} << (16 * r + 4 * c + k);
            }
        }
    }
    return bits;
}

bool
refMakeTask(const PatternMeta &a, const PatternMeta &b, int i, int j,
            int k, int n_cols, TileTask &out)
{
    const std::uint16_t a_tile = a.tiles[i * kTilesPerEdge + k];
    const std::uint16_t b_tile = b.tiles[k * kTilesPerEdge + j];
    if (!a_tile || !b_tile)
        return false;
    const int products = refTileProductCount(a_tile, b_tile, n_cols);
    if (products == 0)
        return false;
    out.i = static_cast<std::int8_t>(i);
    out.j = static_cast<std::int8_t>(j);
    out.k = static_cast<std::int8_t>(k);
    out.aTile = a_tile;
    out.bTile = b_tile;
    out.products = products;
    return true;
}

void
refSortLayerColMajor(TileTask *first, TileTask *last)
{
    for (TileTask *it = first + 1; it < last; ++it) {
        TileTask v = *it;
        TileTask *hole = it;
        while (hole > first &&
               (v.j < hole[-1].j ||
                (v.j == hole[-1].j && v.i < hole[-1].i))) {
            *hole = hole[-1];
            --hole;
        }
        *hole = v;
    }
}

/** The 64-slot TMS scan: every (i, j, k) slot is probed. */
std::vector<TileTask>
refGenerateTileTasks(const PatternMeta &a_meta, const PatternMeta &b_meta,
                     int n_tile_cols, TaskOrdering ordering,
                     bool adaptive)
{
    const int n_cols = n_tile_cols == 1 ? 1 : 4;
    std::vector<TileTask> tasks;
    switch (ordering) {
      case TaskOrdering::OuterProduct:
        for (int k = 0; k < kTilesPerEdge; ++k) {
            const std::size_t layer_begin = tasks.size();
            std::uint16_t live_rows = 0;
            std::uint16_t live_cols = 0;
            for (int i = 0; i < kTilesPerEdge; ++i) {
                for (int j = 0; j < n_tile_cols; ++j) {
                    TileTask t;
                    if (refMakeTask(a_meta, b_meta, i, j, k, n_cols,
                                    t)) {
                        tasks.push_back(t);
                        live_rows = setBit(live_rows, i);
                        live_cols = setBit(live_cols, j);
                    }
                }
            }
            if (adaptive &&
                popcount16(live_rows) > popcount16(live_cols)) {
                refSortLayerColMajor(tasks.data() + layer_begin,
                                     tasks.data() + tasks.size());
            }
        }
        break;
      case TaskOrdering::DotProduct:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int j = 0; j < n_tile_cols; ++j) {
                for (int k = 0; k < kTilesPerEdge; ++k) {
                    TileTask t;
                    if (refMakeTask(a_meta, b_meta, i, j, k, n_cols, t))
                        tasks.push_back(t);
                }
            }
        }
        break;
      case TaskOrdering::RowRow:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int k = 0; k < kTilesPerEdge; ++k) {
                for (int j = 0; j < n_tile_cols; ++j) {
                    TileTask t;
                    if (refMakeTask(a_meta, b_meta, i, j, k, n_cols, t))
                        tasks.push_back(t);
                }
            }
        }
        break;
    }
    return tasks;
}

/** The copy-and-swap SDPU packer: pending is rebuilt every cycle. */
template <typename Fn>
void
refForEachSdpuCycle(std::span<const TileTask> tasks, int num_dpgs,
                    int mac_count, bool check_conflicts, Fn &&fn)
{
    std::vector<const TileTask *> pending;
    for (const TileTask &t : tasks)
        pending.push_back(&t);
    std::vector<const TileTask *> next;
    std::vector<const TileTask *> executed;
    while (!pending.empty()) {
        next.clear();
        executed.clear();
        SdpuCycleView cycle;
        int used_slots = 0;
        int used_dpgs = 0;
        std::uint16_t c_tiles = 0;
        bool stop_scan = false;
        for (const TileTask *task : pending) {
            if (stop_scan || used_dpgs == num_dpgs) {
                next.push_back(task);
                continue;
            }
            if (check_conflicts && testBit(c_tiles, task->cTileId())) {
                ++used_dpgs;
                ++cycle.waitingDpgs;
                cycle.hadConflict = true;
                next.push_back(task);
                continue;
            }
            if (used_slots + task->products > mac_count) {
                next.push_back(task);
                stop_scan = true;
                continue;
            }
            used_slots += task->products;
            ++used_dpgs;
            c_tiles = setBit(c_tiles, task->cTileId());
            executed.push_back(task);
        }
        cycle.executed = std::span<const TileTask *const>(
            executed.data(), executed.size());
        cycle.totalProducts = used_slots;
        fn(std::as_const(cycle));
        std::swap(pending, next);
    }
}

/** One packed SDPU cycle, recorded for comparison. */
struct PackedCycle
{
    std::vector<const TileTask *> executed;
    int waitingDpgs = 0;
    bool hadConflict = false;
    int totalProducts = 0;

    bool operator==(const PackedCycle &) const = default;
};

PackedCycle
packedCycle(const SdpuCycleView &view)
{
    return {std::vector<const TileTask *>(view.executed.begin(),
                                          view.executed.end()),
            view.waitingDpgs, view.hadConflict, view.totalProducts};
}

/**
 * Block patterns for the TMS oracle checks: empty, dense, every
 * single-bit block and random blocks at densities 0.02-0.9.
 */
std::vector<BlockPattern>
tmsCorpus(Rng &rng)
{
    std::vector<BlockPattern> out;
    out.push_back(BlockPattern());
    out.push_back(BlockPattern::dense());
    for (int r = 0; r < kBlockSize; ++r) {
        for (int c = 0; c < kBlockSize; ++c) {
            BlockPattern p;
            p.set(r, c);
            out.push_back(p);
        }
    }
    for (const double d : {0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
        for (int n = 0; n < 12; ++n)
            out.push_back(BlockPattern::random(rng, d));
    }
    return out;
}

// ---- Tests -----------------------------------------------------------

TEST(Tms, DenseBlockGeneratesAll64Tasks)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         BlockPattern::dense(), 4,
                                         TaskOrdering::OuterProduct);
    EXPECT_EQ(tasks.size(), 64u);
    for (const auto &t : tasks) {
        EXPECT_EQ(t.products, 64); // 4x4x4 dense tile triple
        EXPECT_EQ(t.segments(), 16);
    }
}

TEST(Tms, OuterProductOrderIsLayerByLayer)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         BlockPattern::dense(), 4,
                                         TaskOrdering::OuterProduct);
    // K must be non-decreasing across the stream.
    for (std::size_t i = 1; i < tasks.size(); ++i)
        EXPECT_LE(tasks[i - 1].k, tasks[i].k);
    // Within a layer, all 16 (i, j) pairs are distinct.
    for (int k = 0; k < 4; ++k) {
        std::set<int> seen;
        for (const auto &t : tasks) {
            if (t.k == k)
                seen.insert(t.cTileId());
        }
        EXPECT_EQ(seen.size(), 16u);
    }
}

TEST(Tms, DotProductOrderGroupsByCTile)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         BlockPattern::dense(), 4,
                                         TaskOrdering::DotProduct);
    // Consecutive runs of 4 share one C tile.
    for (std::size_t i = 0; i < tasks.size(); i += 4) {
        for (int d = 1; d < 4; ++d) {
            EXPECT_EQ(tasks[i].cTileId(), tasks[i + d].cTileId());
        }
    }
}

TEST(Tms, SkipsEmptyAndNonMatchingTiles)
{
    BlockPattern a, b;
    // A tile (0,0) has a column-3 element; B tile (0,0) holds only
    // rows 0-2: bitmaps intersect structurally but index-match empty.
    a.set(0, 3);
    b.set(0, 0);
    b.set(1, 1);
    b.set(2, 2);
    const auto tasks = generateTileTasks(a, b, 4,
                                         TaskOrdering::OuterProduct);
    EXPECT_TRUE(tasks.empty());
}

TEST(Tms, MvRestrictsToTileColumnZero)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         vectorAsBlock(0xFFFF), 1,
                                         TaskOrdering::OuterProduct);
    EXPECT_EQ(tasks.size(), 16u); // 4 i x 4 k, j = 0 only
    for (const auto &t : tasks) {
        EXPECT_EQ(t.j, 0);
        EXPECT_EQ(t.products, 16); // 4 rows x 1 col x 4 k
        EXPECT_EQ(t.segments(), 4);
    }
}

TEST(Tms, AdaptiveOrderSelectsColumnMajorForTallLayers)
{
    // A occupies all four tile rows of tile-column 0; B occupies only
    // tile (0, 0): the K=0 layer is a 4-tall, 1-wide strip, so the
    // adaptive rule must emit column-major (j outer) order, which for
    // a single column equals i-ascending.
    BlockPattern a, b;
    for (int r = 0; r < kBlockSize; ++r)
        a.set(r, 0);
    for (int c = 0; c < kTileSize; ++c)
        b.set(0, c);
    const auto tasks = generateTileTasks(a, b, 4,
                                         TaskOrdering::OuterProduct,
                                         true);
    ASSERT_EQ(tasks.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(tasks[i].i, i);
}

/**
 * A task's coordinates, bitmaps and four counts, with the coordinates
 * widened for printing.
 */
auto
taskFields(const TileTask &t)
{
    return std::tuple(int{t.i}, int{t.j}, int{t.k}, t.aTile, t.bTile,
                      t.products, t.segments(), t.aElems(), t.bElems());
}

/** The same fields of a slot-scan task, counted tile row by row. */
auto
refTaskFields(const TileTask &t, int n_cols)
{
    int a_elems = 0;
    int b_elems = 0;
    refActiveOperands(t.aTile, t.bTile, n_cols, a_elems, b_elems);
    return std::tuple(int{t.i}, int{t.j}, int{t.k}, t.aTile, t.bTile,
                      t.products,
                      refTileSegmentCount(t.aTile, t.bTile, n_cols),
                      a_elems, b_elems);
}

TEST(Tms, LiveTileWalkMatchesSlotScan)
{
    // The TMS must emit exactly the tasks of the 64-slot scan, field
    // for field and in the same order: every ordering, adaptive on
    // and off, MM and MV. Each task's counts must also match its DPG
    // expansion.
    Rng rng(93);
    std::vector<PatternMeta> metas;
    for (const BlockPattern &p : tmsCorpus(rng))
        metas.push_back(computePatternMeta(p));
    for (const std::uint16_t x : {0x0001, 0x8421, 0xFFFF})
        metas.push_back(computePatternMeta(vectorAsBlock(x)));
    const PatternMeta dense = computePatternMeta(BlockPattern::dense());

    struct Config
    {
        TaskOrdering ordering;
        bool adaptive;
    };
    const Config configs[] = {{TaskOrdering::OuterProduct, true},
                              {TaskOrdering::OuterProduct, false},
                              {TaskOrdering::DotProduct, true},
                              {TaskOrdering::RowRow, true}};
    std::size_t checked = 0;
    auto check = [&](const PatternMeta &a, const PatternMeta &b) {
        for (const Config &cfg : configs) {
            for (const int n_tile_cols : {1, kTilesPerEdge}) {
                const TileTaskList got = generateTileTasks(
                    a, b, n_tile_cols, cfg.ordering, cfg.adaptive);
                const std::vector<TileTask> want = refGenerateTileTasks(
                    a, b, n_tile_cols, cfg.ordering, cfg.adaptive);
                ASSERT_EQ(got.size(), want.size())
                    << toString(cfg.ordering) << " " << n_tile_cols;
                const int n_cols = n_tile_cols == 1 ? 1 : 4;
                for (std::size_t n = 0; n < got.size(); ++n) {
                    ASSERT_EQ(taskFields(got[n]),
                              refTaskFields(want[n], n_cols))
                        << toString(cfg.ordering) << " adaptive "
                        << cfg.adaptive << " cols " << n_tile_cols
                        << " task " << n;
                    const auto t4 = expandTileTask(got[n].aTile,
                                                   got[n].bTile, n_cols);
                    int products = 0;
                    for (const auto &x : t4)
                        products += x.len();
                    ASSERT_EQ(got[n].products, products);
                    ASSERT_EQ(got[n].segments(),
                              static_cast<int>(t4.size()));
                }
                checked += got.size();
            }
        }
    };
    for (std::size_t n = 0; n < metas.size(); ++n) {
        const PatternMeta &other = metas[rng.nextBelow(metas.size())];
        check(metas[n], dense);
        check(dense, metas[n]);
        check(metas[n], metas[n]);
        check(metas[n], other);
        check(other, metas[n]);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(checked, 0u);
}

TEST(Tms, ProductWordMatchesDefinition)
{
    // Bit 16r+4c+k of a task's product word is set iff A(r, k) x B(k, c)
    // is a product, for c < n_cols, and the product count is its
    // popcount: every single-bit tile pair, then 10,000 random pairs
    // at densities from sparse to dense, MM and MV.
    std::vector<std::pair<std::uint16_t, std::uint16_t>> pairs;
    for (int x = 0; x < 16; ++x) {
        for (int y = 0; y < 16; ++y)
            pairs.emplace_back(setBit(0, x), setBit(0, y));
    }
    Rng rng(95);
    const double densities[] = {0.1, 0.3, 0.5, 0.7, 0.9};
    for (int n = 0; n < 10000; ++n) {
        const double d = densities[n % 5];
        std::uint16_t at = 0;
        std::uint16_t bt = 0;
        for (int bit = 0; bit < 16; ++bit) {
            if (rng.nextBool(d))
                at = setBit(at, bit);
            if (rng.nextBool(d))
                bt = setBit(bt, bit);
        }
        pairs.emplace_back(at, bt);
    }
    for (const auto &[at, bt] : pairs) {
        for (const int n_cols : {1, 4}) {
            const TileTask t = countTileTask(at, bt, n_cols);
            const std::uint64_t want = refProductBits(at, bt, n_cols);
            ASSERT_EQ(t.productBits, want)
                << at << " " << bt << " " << n_cols;
            ASSERT_EQ(t.products, std::popcount(want))
                << at << " " << bt << " " << n_cols;
        }
    }
}

TEST(Dpg, PaperFig9TaskCodeExample)
{
    // Reconstruct the paper's example: T4 task code 0x49 means
    // "accumulate into the 4th nonzero of tile C with sparse pattern
    // 0b1001", i.e. C[r,c] += A[r,0]*B[0,c] + A[r,3]*B[3,c].
    // Build a tile pair whose (1, 3) output matches k = {0, 3} and
    // which has exactly 4 preceding outputs in row-major order.
    std::uint16_t a_tile = 0;
    std::uint16_t b_tile = 0;
    // Row 0 of A dense -> outputs (0, 0..3) rank 0..3 vs dense B col.
    for (int k = 0; k < 4; ++k)
        a_tile = setBit(a_tile, bit4x4(0, k));
    // Row 1 of A: elements at k=0 and k=3.
    a_tile = setBit(a_tile, bit4x4(1, 0));
    a_tile = setBit(a_tile, bit4x4(1, 3));
    // B: column 3 has rows {0, 3}; columns 0..2 have row 1 only (so
    // row 0 of A matches them via k=1).
    b_tile = setBit(b_tile, bit4x4(0, 3));
    b_tile = setBit(b_tile, bit4x4(3, 3));
    for (int c = 0; c < 3; ++c)
        b_tile = setBit(b_tile, bit4x4(1, c));

    const auto tasks = expandTileTask(a_tile, b_tile, 4,
                                      FillOrder::RowMajor);
    // Find the (1, 3) output.
    bool found = false;
    for (const auto &t : tasks) {
        if (t.r == 1 && t.c == 3) {
            found = true;
            EXPECT_EQ(t.pattern, 0b1001);
            EXPECT_EQ(t.target, 4);
            EXPECT_EQ(t.code(), 0x49);
            EXPECT_EQ(t.len(), 2);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Dpg, SegmentsAndProductsConsistent)
{
    // countTileTask's products and segments are the DPG's expansion:
    // the summed T4 lengths and the T4 count. Its operand counts match
    // the earlier per-tile derivation. MM and MV extents, over tile
    // pairs at densities from sparse to dense.
    Rng rng(91);
    for (const double d : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        for (int trial = 0; trial < 400; ++trial) {
            std::uint16_t at = 0;
            std::uint16_t bt = 0;
            for (int bit = 0; bit < 16; ++bit) {
                if (rng.nextBool(d))
                    at = setBit(at, bit);
                if (rng.nextBool(d))
                    bt = setBit(bt, bit);
            }
            for (const int n_cols : {1, 4}) {
                const TileTask t = countTileTask(at, bt, n_cols);
                const auto t4 = expandTileTask(at, bt, n_cols);
                int products = 0;
                for (const auto &x : t4)
                    products += x.len();
                ASSERT_EQ(t.products, products)
                    << at << " " << bt << " " << n_cols;
                ASSERT_EQ(t.segments(), static_cast<int>(t4.size()))
                    << at << " " << bt << " " << n_cols;
                int a_elems = 0;
                int b_elems = 0;
                refActiveOperands(at, bt, n_cols, a_elems, b_elems);
                ASSERT_EQ(t.aElems(), a_elems)
                    << at << " " << bt << " " << n_cols;
                ASSERT_EQ(t.bElems(), b_elems)
                    << at << " " << bt << " " << n_cols;
                ASSERT_EQ(t.aTile, at);
                ASSERT_EQ(t.bTile, bt);
            }
        }
    }
}

TEST(Dpg, TargetsAreRowMajorRanks)
{
    const auto tasks = expandTileTask(0xFFFF, 0xFFFF, 4,
                                      FillOrder::ZShaped);
    ASSERT_EQ(tasks.size(), 16u);
    for (const auto &t : tasks)
        EXPECT_EQ(t.target, t.r * 4 + t.c);
}

TEST(Dpg, ZShapedFillMeetsPaperBroadcastBounds)
{
    // Dense tiles stress reuse the most: the Z order must keep A
    // within 5 adjacent multipliers and B within 9 (§IV-A-2 ④).
    const auto z = expandTileTask(0xFFFF, 0xFFFF, 4,
                                  FillOrder::ZShaped);
    const BroadcastRange range = broadcastRange(z);
    EXPECT_LE(range.maxRangeA, 5);
    EXPECT_LE(range.maxRangeB, 9);
}

TEST(Dpg, ActiveOperandsSkipDeadElements)
{
    std::uint16_t a_tile = 0;
    std::uint16_t b_tile = 0;
    a_tile = setBit(a_tile, bit4x4(0, 0)); // used: B row 0 live
    a_tile = setBit(a_tile, bit4x4(0, 2)); // dead: B row 2 empty
    b_tile = setBit(b_tile, bit4x4(0, 1)); // used: A col 0 live
    b_tile = setBit(b_tile, bit4x4(3, 1)); // dead: A col 3 empty
    const TileTask t = countTileTask(a_tile, b_tile, 4);
    EXPECT_EQ(t.aElems(), 1);
    EXPECT_EQ(t.bElems(), 1);
    // MV keeps only output column 0, where B has no element: nothing
    // is fetched.
    const TileTask mv = countTileTask(a_tile, b_tile, 1);
    EXPECT_EQ(mv.aElems(), 0);
    EXPECT_EQ(mv.bElems(), 0);
}

TEST(Sdpu, PacksUpToMacBudget)
{
    // Five 16-product tasks with distinct C tiles: 4 fit in 64 slots,
    // the fifth spills to a second cycle.
    std::vector<TileTask> tasks;
    for (int i = 0; i < 5; ++i) {
        TileTask t;
        t.i = static_cast<std::int8_t>(i % 4);
        t.j = static_cast<std::int8_t>(i / 4);
        t.k = 0;
        t.products = 16;
        tasks.push_back(t);
    }
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].executed.size(), 4u);
    EXPECT_EQ(cycles[0].products(), 64);
    EXPECT_EQ(cycles[1].executed.size(), 1u);
}

TEST(Sdpu, DpgCountLimitsParallelTasks)
{
    std::vector<TileTask> tasks;
    for (int i = 0; i < 6; ++i) {
        TileTask t;
        t.i = static_cast<std::int8_t>(i % 4);
        t.j = static_cast<std::int8_t>(i / 4);
        t.k = 0;
        t.products = 4;
        tasks.push_back(t);
    }
    const auto cycles = scheduleSdpu(tasks, 2, 64);
    ASSERT_EQ(cycles.size(), 3u); // 2 tasks per cycle despite slots
    for (const auto &c : cycles)
        EXPECT_EQ(c.executed.size(), 2u);
}

TEST(Sdpu, WriteConflictStallsSecondTask)
{
    // Two tasks writing the same C tile cannot share a cycle.
    std::vector<TileTask> tasks(2);
    tasks[0].i = tasks[1].i = 1;
    tasks[0].j = tasks[1].j = 2;
    tasks[0].k = 0;
    tasks[1].k = 1;
    tasks[0].products = tasks[1].products = 8;
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].executed.size(), 1u);
    EXPECT_EQ(cycles[0].waitingDpgs, 1);
    EXPECT_TRUE(cycles[0].hadConflict);
    EXPECT_EQ(cycles[1].executed.size(), 1u);
    EXPECT_FALSE(cycles[1].hadConflict);
}

TEST(Sdpu, ConflictDoesNotBlockLaterTasks)
{
    // Task 1 conflicts with task 0; task 2 (different C tile) must
    // still execute in the first cycle.
    std::vector<TileTask> tasks(3);
    tasks[0].i = tasks[1].i = 0;
    tasks[0].j = tasks[1].j = 0;
    tasks[1].k = 1;
    tasks[2].i = 3;
    tasks[2].j = 3;
    for (auto &t : tasks)
        t.products = 8;
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].executed.size(), 2u);
    EXPECT_EQ(cycles[0].waitingDpgs, 1);
}

TEST(Sdpu, FullTaskOccupiesWholeCycle)
{
    std::vector<TileTask> tasks(2);
    tasks[0].products = 64;
    tasks[1].i = 1;
    tasks[1].products = 64;
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].products(), 64);
    EXPECT_EQ(cycles[1].products(), 64);
}

TEST(Sdpu, MaskPackingMatchesCopyAndSwap)
{
    // The pending-mask packer must visit the same cycles as the
    // copy-and-swap one: the same executed tasks in the same order,
    // waiting DPGs, conflict flag and products, on TMS task lists of
    // every ordering (dot-product order stresses write conflicts).
    // Dense x dense lists are the only ones that fill all 64 mask
    // bits; MV lists pair A with an embedded x segment.
    Rng rng(94);
    std::vector<TileTaskList> lists;
    for (const double d : {0.05, 0.2, 0.5, 0.9}) {
        for (int n = 0; n < 6; ++n) {
            const PatternMeta a =
                computePatternMeta(BlockPattern::random(rng, d));
            const PatternMeta b =
                computePatternMeta(BlockPattern::random(rng, d));
            for (const TaskOrdering ordering :
                 {TaskOrdering::OuterProduct, TaskOrdering::DotProduct,
                  TaskOrdering::RowRow}) {
                for (const int n_tile_cols : {1, kTilesPerEdge})
                    lists.push_back(generateTileTasks(a, b, n_tile_cols,
                                                      ordering));
            }
        }
    }
    const PatternMeta dense = computePatternMeta(BlockPattern::dense());
    const PatternMeta half =
        computePatternMeta(BlockPattern::random(rng, 0.5));
    for (const TaskOrdering ordering :
         {TaskOrdering::OuterProduct, TaskOrdering::DotProduct,
          TaskOrdering::RowRow}) {
        lists.push_back(generateTileTasks(dense, dense, 4, ordering));
        ASSERT_EQ(lists.back().size(),
                  static_cast<std::size_t>(kMaxTileTasks));
        for (const std::uint16_t x : {0x8421, 0xFFFF}) {
            const PatternMeta xv = computePatternMeta(vectorAsBlock(x));
            lists.push_back(generateTileTasks(dense, xv, 1, ordering));
            lists.push_back(generateTileTasks(half, xv, 1, ordering));
        }
    }
    for (const TileTaskList &list : lists) {
        const std::span<const TileTask> tasks(list.data(), list.size());
        for (const int dpgs : {1, 2, 4, 8, 16}) {
            for (const int macs : {64, 128}) {
                for (const bool conflicts : {false, true}) {
                    std::vector<PackedCycle> got;
                    std::vector<PackedCycle> want;
                    forEachSdpuCycle(tasks, dpgs, macs, conflicts,
                                     [&](const SdpuCycleView &v) {
                                         got.push_back(packedCycle(v));
                                     });
                    refForEachSdpuCycle(tasks, dpgs, macs, conflicts,
                                        [&](const SdpuCycleView &v) {
                                            want.push_back(packedCycle(v));
                                        });
                    ASSERT_TRUE(got == want)
                        << list.size() << " tasks, " << dpgs
                        << " DPGs, " << macs << " MACs, conflicts "
                        << conflicts << ": " << got.size() << " vs "
                        << want.size() << " cycles";
                }
            }
        }
    }
}

TEST(Sdpu, RefusesSpanLongerThanMask)
{
    // One mask bit per pending task: a span of 65 tasks must stop the
    // run, even where fatals throw, instead of being read past the
    // mask.
    std::vector<TileTask> tasks(kMaxTileTasks + 1);
    for (TileTask &t : tasks)
        t.products = 1;
    EXPECT_DEATH(
        {
            ScopedFatalThrow guard;
            forEachSdpuCycle(tasks, 8, 64, /*check_conflicts=*/false,
                             [](const SdpuCycleView &) {});
        },
        "SDPU span of 65 T3 tasks exceeds 64");
}

TEST(OrderingStudy, OuterProductBeatsAlternativesOnReuse)
{
    // Fig. 10's qualitative claim on random blocks: outer-product
    // ordering achieves at least the reuse and parallelism of the
    // dot-product and row-row orders on average.
    Rng rng(92);
    double outer_reuse = 0.0, dot_reuse = 0.0, rr_reuse = 0.0;
    double outer_par = 0.0;
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
        const BlockPattern a = BlockPattern::random(rng, 0.25);
        const BlockPattern b = BlockPattern::random(rng, 0.25);
        outer_reuse += analyzeOrdering(a, b, 4,
                                       TaskOrdering::OuterProduct, 8,
                                       64).reuseRateA;
        dot_reuse += analyzeOrdering(a, b, 4,
                                     TaskOrdering::DotProduct, 8,
                                     64).reuseRateA;
        rr_reuse += analyzeOrdering(a, b, 4, TaskOrdering::RowRow, 8,
                                    64).reuseRateA;
        outer_par += analyzeOrdering(a, b, 4,
                                     TaskOrdering::OuterProduct, 8,
                                     64).avgParallelTasks;
    }
    EXPECT_GE(outer_reuse, dot_reuse - 1e-9);
    EXPECT_GE(outer_reuse, rr_reuse - 1e-9);
    EXPECT_GT(outer_par / trials, 1.0);
}

} // namespace
} // namespace unistc
