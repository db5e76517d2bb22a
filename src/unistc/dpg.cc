#include "unistc/dpg.hh"

#include <algorithm>
#include <array>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unistc
{

namespace
{

/** Output-position visit sequences for the four fill orders. */
std::array<std::pair<int, int>, 16>
fillSequence(FillOrder order)
{
    std::array<std::pair<int, int>, 16> seq;
    int n = 0;
    switch (order) {
      case FillOrder::ZShaped:
        // Morton order, rows first inside each 2x2 quadrant.
        for (int qr = 0; qr < 2; ++qr) {
            for (int qc = 0; qc < 2; ++qc) {
                for (int r = 0; r < 2; ++r) {
                    for (int c = 0; c < 2; ++c)
                        seq[n++] = {qr * 2 + r, qc * 2 + c};
                }
            }
        }
        break;
      case FillOrder::NShaped:
        // Morton order, columns first inside each 2x2 quadrant.
        for (int qc = 0; qc < 2; ++qc) {
            for (int qr = 0; qr < 2; ++qr) {
                for (int c = 0; c < 2; ++c) {
                    for (int r = 0; r < 2; ++r)
                        seq[n++] = {qr * 2 + r, qc * 2 + c};
                }
            }
        }
        break;
      case FillOrder::RowMajor:
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c)
                seq[n++] = {r, c};
        }
        break;
      case FillOrder::ColMajor:
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r)
                seq[n++] = {r, c};
        }
        break;
    }
    return seq;
}

/**
 * Lane-gap window within which an operand is forwarded (broadcast)
 * instead of refetched. Matches the paper's 9-multiplier B range:
 * two tasks separated by at most one intervening task.
 */
constexpr int kBroadcastWindow = 8;

} // namespace

const char *
toString(FillOrder order)
{
    switch (order) {
      case FillOrder::ZShaped:
        return "Z-shaped";
      case FillOrder::NShaped:
        return "N-shaped";
      case FillOrder::RowMajor:
        return "row-major";
      case FillOrder::ColMajor:
        return "col-major";
    }
    return "?";
}

int
T4Task::len() const
{
    return popcount16(pattern);
}

std::uint8_t
T4Task::code() const
{
    return static_cast<std::uint8_t>((target << 4) | (pattern & 0xFu));
}

T4TaskList
expandTileTaskInline(std::uint16_t a_tile, std::uint16_t b_tile,
                     int n_cols, FillOrder order)
{
    UNISTC_ASSERT(n_cols == 1 || n_cols == 4,
                  "tile N extent must be 1 or 4");

    // Transposing B once turns every col4() lookup into a nibble
    // extract; the 16 match words are shared between the rank pass
    // and the fill pass.
    const std::uint16_t b_t = transpose4x4(b_tile);
    std::array<std::array<std::uint16_t, 4>, 4> match{};
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < n_cols; ++c) {
            match[r][c] = static_cast<std::uint16_t>(
                row4(a_tile, r) & row4(b_t, c));
        }
    }

    // Accumulation targets are ranks in the C tile's row-major
    // nonzero order (the storage order of the BBC value array).
    std::array<std::array<int, 4>, 4> rank{};
    int next_rank = 0;
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < n_cols; ++c)
            rank[r][c] = match[r][c] ? next_rank++ : -1;
    }
    UNISTC_ASSERT(next_rank <= 16, "more than 16 segments in a tile");

    T4TaskList tasks;
    for (const auto &[r, c] : fillSequence(order)) {
        if (c >= n_cols)
            continue;
        if (!match[r][c])
            continue;
        T4Task t;
        t.target = static_cast<std::uint8_t>(rank[r][c]);
        t.pattern = static_cast<std::uint8_t>(match[r][c]);
        t.r = static_cast<std::int8_t>(r);
        t.c = static_cast<std::int8_t>(c);
        tasks.push_back(t);
    }
    return tasks;
}

std::vector<T4Task>
expandTileTask(std::uint16_t a_tile, std::uint16_t b_tile, int n_cols,
               FillOrder order)
{
    const T4TaskList tasks =
        expandTileTaskInline(a_tile, b_tile, n_cols, order);
    return std::vector<T4Task>(tasks.begin(), tasks.end());
}

BroadcastRange
broadcastRange(std::span<const T4Task> tasks)
{
    BroadcastRange out;
    // Last SDPU lane at which each operand was consumed; -1 = none.
    std::array<std::array<int, 4>, 4> last_a;
    std::array<std::array<int, 4>, 4> last_b;
    for (auto &row : last_a)
        row.fill(-1);
    for (auto &row : last_b)
        row.fill(-1);

    int lane = 0;
    for (const auto &t : tasks) {
        int offset = 0;
        forEachSetBit(t.pattern, [&](int k) {
            const int at_lane = lane + offset;
            ++offset;
            int &la = last_a[t.r][k];
            if (la >= 0 && at_lane - la <= kBroadcastWindow) {
                out.maxRangeA =
                    std::max(out.maxRangeA, at_lane - la + 1);
            }
            la = at_lane;
            int &lb = last_b[k][t.c];
            if (lb >= 0 && at_lane - lb <= kBroadcastWindow) {
                out.maxRangeB =
                    std::max(out.maxRangeB, at_lane - lb + 1);
            }
            lb = at_lane;
        });
        lane += t.len();
    }
    return out;
}

} // namespace unistc
