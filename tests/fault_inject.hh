/**
 * @file
 * Deterministic, seed-driven data-fault injection
 * (docs/ROBUSTNESS.md). FaultPlan corrupts an in-memory BbcMatrix
 * (bitmap bit-flips, NaN/Inf value injection) or a serialized byte
 * image (truncation, garbled bytes), all drawn from one RNG stream,
 * so a failing campaign replays exactly from its seed. Tests use it
 * to prove each validator and checksum detector fires.
 */

#ifndef UNISTC_TESTS_FAULT_INJECT_HH
#define UNISTC_TESTS_FAULT_INJECT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.hh"

namespace unistc
{

class BbcMatrix;

/** Corruption classes the validators and checksums must detect. */
enum class FaultKind
{
    BitmapLv1Flip,  ///< Flip one bit of a random Lv1 tile bitmap.
    BitmapLv2Flip,  ///< Flip one bit of a random Lv2 element bitmap.
    NanValue,       ///< Overwrite one stored value with quiet NaN.
    InfValue,       ///< Overwrite one stored value with +infinity.
    TruncateStream, ///< Cut a serialized byte image short.
    GarbleStream,   ///< XOR-garble one byte of a serialized image.
};

/** Printable kind name ("BitmapLv1Flip", ...). */
const char *toString(FaultKind kind);

/**
 * Seed-driven corruption engine. Every corrupt*() call draws from
 * the plan's RNG stream, so a campaign seeded with S applies the
 * identical byte/bit damage on every run.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}

    /**
     * Corrupt @p m in memory with a data-fault @p kind (a bitmap
     * flip or NaN/Inf class). Returns a human-readable description
     * of the exact damage ("flipped Lv1 bit 3 of block 17"), or ""
     * if the matrix has no site for that fault (e.g. empty).
     */
    std::string corruptBbc(BbcMatrix &m, FaultKind kind);

    /**
     * Corrupt a serialized byte image with a stream-fault @p kind.
     * Damage lands at or after @p minOffset, so callers can spare
     * the magic/version header when they mean to test payload
     * integrity. Returns a description of the damage, "" when the
     * image is too short to corrupt.
     */
    std::string corruptBytes(std::string &bytes, FaultKind kind,
                             std::size_t minOffset = 0);

  private:
    Rng rng_;
};

} // namespace unistc

#endif // UNISTC_TESTS_FAULT_INJECT_HH
