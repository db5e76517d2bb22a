/**
 * @file
 * Deterministic, seed-driven fault injection (docs/ROBUSTNESS.md).
 *
 * Two fault families, both driven from one RNG stream so a failing
 * campaign replays exactly from its seed:
 *
 *  - *Data faults* (FaultPlan): corrupt an in-memory BbcMatrix
 *    (bitmap bit-flips, NaN/Inf value injection) or a serialized
 *    byte image (truncation, garbled bytes). Tests use these to
 *    prove each validator/checksum detector fires.
 *
 *  - *Job faults* (FaultSpec): make a sweep job artificially slow or
 *    make its first N attempts throw, to exercise the executor's
 *    watchdog / retry / quarantine machinery.
 */

#ifndef UNISTC_ROBUST_FAULT_INJECT_HH
#define UNISTC_ROBUST_FAULT_INJECT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "robust/status.hh"

namespace unistc
{

class BbcMatrix;

/** Corruption classes the robustness layer must detect or recover. */
enum class FaultKind
{
    BitmapLv1Flip,  ///< Flip one bit of a random Lv1 tile bitmap.
    BitmapLv2Flip,  ///< Flip one bit of a random Lv2 element bitmap.
    NanValue,       ///< Overwrite one stored value with quiet NaN.
    InfValue,       ///< Overwrite one stored value with +infinity.
    TruncateStream, ///< Cut a serialized byte image short.
    GarbleStream,   ///< XOR-garble one byte of a serialized image.
    SlowJob,        ///< Delay a sweep job past its watchdog budget.
    ThrowJob,       ///< Make a sweep job's first attempts throw.
};

/** Printable kind name ("BitmapLv1Flip", ...). */
const char *toString(FaultKind kind);

/**
 * Per-job fault knobs, attached to an exec::JobSpec by tests. The
 * throw counter is shared mutable state: build a fresh FaultSpec per
 * sweep, or retries observed in an earlier sweep leak into the next.
 */
struct FaultSpec
{
    /** Sleep this long at the start of every attempt (SlowJob). */
    int delayMs = 0;

    /** First N attempts throw UnistcError before running (ThrowJob). */
    int throwCount = 0;

    /** Attempts that have thrown so far (runtime state). */
    mutable std::atomic<int> thrown{0};

    /**
     * Apply the fault for one attempt: sleep, then throw if the
     * throw budget is not yet exhausted.
     */
    void apply(const std::string &jobLabel) const;
};

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

#endif // UNISTC_ROBUST_FAULT_INJECT_HH
