#include "robust/validate.hh"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "bbc/bbc_matrix.hh"
#include "common/bitops.hh"
#include "sparse/csr.hh"

namespace unistc
{

namespace
{

/** Compose "<label>: <parts...>" into a CorruptData status. */
template <typename... Args>
Status
corrupt(const std::string &label, const char *fallback, Args &&...args)
{
    std::ostringstream os;
    os << (label.empty() ? fallback : label.c_str()) << ": ";
    (os << ... << std::forward<Args>(args));
    return corruptData(os.str());
}

} // namespace

Status
validateCsr(const CsrMatrix &m, const std::string &label)
{
    const char *kWho = "<csr>";
    if (m.rows() < 0 || m.cols() < 0)
        return corrupt(label, kWho, "negative shape ", m.rows(), "x",
                       m.cols());
    const auto &rp = m.rowPtr();
    if (rp.size() != static_cast<std::size_t>(m.rows()) + 1)
        return corrupt(label, kWho, "rowPtr has ", rp.size(),
                       " entries, want rows+1 = ", m.rows() + 1);
    if (rp.front() != 0)
        return corrupt(label, kWho, "rowPtr[0] = ", rp.front(),
                       ", want 0");
    for (int r = 0; r < m.rows(); ++r) {
        if (rp[r + 1] < rp[r]) {
            return corrupt(label, kWho, "rowPtr not monotone at row ",
                           r, " (", rp[r], " -> ", rp[r + 1], ")");
        }
    }
    if (rp.back() != static_cast<std::int64_t>(m.colIdx().size()))
        return corrupt(label, kWho, "rowPtr[rows] = ", rp.back(),
                       " but ", m.colIdx().size(),
                       " column indices stored");
    if (m.colIdx().size() != m.vals().size())
        return corrupt(label, kWho, m.colIdx().size(),
                       " column indices vs ", m.vals().size(),
                       " values");
    for (int r = 0; r < m.rows(); ++r) {
        for (std::int64_t i = rp[r]; i < rp[r + 1]; ++i) {
            const int c = m.colIdx()[i];
            if (c < 0 || c >= m.cols()) {
                return corrupt(label, kWho, "column ", c, " at row ",
                               r, " out of [0, ", m.cols(), ")");
            }
            if (i > rp[r] && m.colIdx()[i - 1] >= c) {
                return corrupt(label, kWho,
                               "columns not strictly ascending in "
                               "row ", r, " (", m.colIdx()[i - 1],
                               " then ", c, ")");
            }
        }
    }
    for (std::size_t i = 0; i < m.vals().size(); ++i) {
        if (!std::isfinite(m.vals()[i])) {
            return corrupt(label, kWho, "non-finite value ",
                           m.vals()[i], " at nnz index ", i);
        }
    }
    return Status();
}

Status
validateBbc(const BbcMatrix &m, const std::string &label)
{
    const char *kWho = "<bbc>";
    if (m.rows() < 0 || m.cols() < 0)
        return corrupt(label, kWho, "negative shape ", m.rows(), "x",
                       m.cols());
    const auto &rp = m.rowPtr();
    if (rp.size() != static_cast<std::size_t>(m.blockRows()) + 1)
        return corrupt(label, kWho, "block rowPtr has ", rp.size(),
                       " entries, want blockRows+1 = ",
                       m.blockRows() + 1);
    if (rp.front() != 0)
        return corrupt(label, kWho, "block rowPtr[0] = ", rp.front(),
                       ", want 0");
    for (int r = 0; r < m.blockRows(); ++r) {
        if (rp[r + 1] < rp[r]) {
            return corrupt(label, kWho,
                           "block rowPtr not monotone at block row ",
                           r, " (", rp[r], " -> ", rp[r + 1], ")");
        }
    }
    if (rp.back() != m.numBlocks())
        return corrupt(label, kWho, "block rowPtr[blockRows] = ",
                       rp.back(), " but ", m.numBlocks(),
                       " blocks stored");
    if (m.lv1().size() != static_cast<std::size_t>(m.numBlocks()))
        return corrupt(label, kWho, m.lv1().size(),
                       " Lv1 bitmaps vs ", m.numBlocks(), " blocks");
    if (m.valPtrLv1().size() !=
        static_cast<std::size_t>(m.numBlocks())) {
        return corrupt(label, kWho, m.valPtrLv1().size(),
                       " ValPtr_Lv1 entries vs ", m.numBlocks(),
                       " blocks");
    }
    if (m.lv2().size() != m.valPtrLv2().size())
        return corrupt(label, kWho, m.lv2().size(),
                       " Lv2 bitmaps vs ", m.valPtrLv2().size(),
                       " ValPtr_Lv2 entries");

    // Block columns: in bounds, strictly ascending per block row.
    for (int r = 0; r < m.blockRows(); ++r) {
        for (std::int64_t i = rp[r]; i < rp[r + 1]; ++i) {
            const int c = m.colIdx()[i];
            if (c < 0 || c >= m.blockCols()) {
                return corrupt(label, kWho, "block column ", c,
                               " at block row ", r, " out of [0, ",
                               m.blockCols(), ")");
            }
            if (i > rp[r] && m.colIdx()[i - 1] >= c) {
                return corrupt(label, kWho,
                               "block columns not strictly ascending "
                               "in block row ", r);
            }
        }
    }

    // Bitmap popcounts vs the stored prefix sums and value count.
    std::int64_t tiles = 0;
    std::int64_t values = 0;
    for (std::int64_t blk = 0; blk < m.numBlocks(); ++blk) {
        const std::uint16_t lv1 = m.lv1()[blk];
        if (lv1 == 0)
            return corrupt(label, kWho, "block ", blk,
                           " has an empty Lv1 bitmap");
        if (m.tileBase(blk) != tiles) {
            return corrupt(label, kWho, "tileBase[", blk, "] = ",
                           m.tileBase(blk),
                           " disagrees with Lv1 popcount prefix ",
                           tiles);
        }
        if (m.valPtrLv1()[blk] != values) {
            return corrupt(label, kWho, "ValPtr_Lv1[", blk, "] = ",
                           m.valPtrLv1()[blk],
                           " disagrees with popcount prefix ",
                           values);
        }
        const int tile_count = popcount16(lv1);
        if (tiles + tile_count >
            static_cast<std::int64_t>(m.lv2().size())) {
            return corrupt(label, kWho, "block ", blk, " claims ",
                           tile_count, " tiles but only ",
                           m.lv2().size() - tiles,
                           " Lv2 bitmaps remain");
        }
        int block_vals = 0;
        for (int t = 0; t < tile_count; ++t) {
            const std::uint16_t lv2 = m.lv2()[tiles];
            if (lv2 == 0)
                return corrupt(label, kWho, "tile ", tiles,
                               " (block ", blk,
                               ") has an empty Lv2 bitmap");
            if (m.valPtrLv2()[tiles] != block_vals) {
                return corrupt(label, kWho, "ValPtr_Lv2[", tiles,
                               "] = ",
                               static_cast<int>(m.valPtrLv2()[tiles]),
                               " disagrees with in-block popcount "
                               "prefix ", block_vals);
            }
            block_vals += popcount16(lv2);
            ++tiles;
        }
        values += block_vals;
    }
    if (tiles != static_cast<std::int64_t>(m.lv2().size()))
        return corrupt(label, kWho, "Lv1 popcounts cover ", tiles,
                       " tiles but ", m.lv2().size(),
                       " Lv2 bitmaps stored");
    if (values != m.nnz())
        return corrupt(label, kWho, "bitmap popcounts say ", values,
                       " values but ", m.nnz(), " stored");
    for (std::int64_t i = 0; i < m.nnz(); ++i) {
        if (!std::isfinite(m.vals()[i])) {
            return corrupt(label, kWho, "non-finite value ",
                           m.vals()[i], " at value index ", i);
        }
    }
    return Status();
}

} // namespace unistc
