#include "fault_inject.hh"

#include <limits>
#include <sstream>

#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"

namespace unistc
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::BitmapLv1Flip:
        return "BitmapLv1Flip";
      case FaultKind::BitmapLv2Flip:
        return "BitmapLv2Flip";
      case FaultKind::NanValue:
        return "NanValue";
      case FaultKind::InfValue:
        return "InfValue";
      case FaultKind::TruncateStream:
        return "TruncateStream";
      case FaultKind::GarbleStream:
        return "GarbleStream";
    }
    return "?";
}

std::string
FaultPlan::corruptBbc(BbcMatrix &m, FaultKind kind)
{
    std::ostringstream what;
    switch (kind) {
      case FaultKind::BitmapLv1Flip: {
        if (m.lv1_.empty())
            return "";
        const auto blk = static_cast<std::size_t>(
            rng_.nextInRange(0, static_cast<int>(m.lv1_.size()) - 1));
        const int bit = rng_.nextInRange(0, 15);
        m.lv1_[blk] ^= static_cast<std::uint16_t>(1u << bit);
        what << "flipped Lv1 bit " << bit << " of block " << blk;
        break;
      }
      case FaultKind::BitmapLv2Flip: {
        if (m.lv2_.empty())
            return "";
        const auto tile = static_cast<std::size_t>(
            rng_.nextInRange(0, static_cast<int>(m.lv2_.size()) - 1));
        const int bit = rng_.nextInRange(0, 15);
        m.lv2_[tile] ^= static_cast<std::uint16_t>(1u << bit);
        what << "flipped Lv2 bit " << bit << " of tile " << tile;
        break;
      }
      case FaultKind::NanValue:
      case FaultKind::InfValue: {
        if (m.vals_.empty())
            return "";
        const auto i = static_cast<std::size_t>(
            rng_.nextInRange(0, static_cast<int>(m.vals_.size()) - 1));
        m.vals_[i] = kind == FaultKind::NanValue
            ? std::numeric_limits<double>::quiet_NaN()
            : std::numeric_limits<double>::infinity();
        what << "overwrote value " << i << " with "
             << (kind == FaultKind::NanValue ? "NaN" : "Inf");
        break;
      }
      default:
        UNISTC_PANIC("corruptBbc: ", toString(kind),
                     " is not a data fault");
    }
    return what.str();
}

std::string
FaultPlan::corruptBytes(std::string &bytes, FaultKind kind,
                        std::size_t minOffset)
{
    if (bytes.size() <= minOffset)
        return "";
    std::ostringstream what;
    const auto span = static_cast<int>(bytes.size() - minOffset);
    switch (kind) {
      case FaultKind::TruncateStream: {
        // Keep at least minOffset bytes so the header (when spared)
        // survives and the *payload* checks must catch the damage.
        const std::size_t keep =
            minOffset +
            static_cast<std::size_t>(rng_.nextInRange(0, span - 1));
        what << "truncated " << bytes.size() << "-byte image to "
             << keep << " bytes";
        bytes.resize(keep);
        break;
      }
      case FaultKind::GarbleStream: {
        const std::size_t at =
            minOffset +
            static_cast<std::size_t>(rng_.nextInRange(0, span - 1));
        // XOR with a nonzero mask always changes the byte.
        const char mask =
            static_cast<char>(rng_.nextInRange(1, 255));
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        what << "garbled byte " << at << " (xor 0x" << std::hex
             << (static_cast<unsigned>(mask) & 0xFFu) << ")";
        break;
      }
      default:
        UNISTC_PANIC("corruptBytes: ", toString(kind),
                     " is not a stream fault");
    }
    return what.str();
}

} // namespace unistc
