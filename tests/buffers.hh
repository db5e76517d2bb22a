/**
 * @file
 * Uni-STC internal buffer accounting (§IV-C-1): the Meta Buffer
 * (144 B), Matrix A buffer (2 KB) and accumulator buffer (1 KB).
 * These functions compute the exact occupancy a T1 task induces and
 * prove the paper's buffer sizes suffice for every possible task —
 * a property test_buffers.cc asserts on random patterns. The cycle
 * model never consults them, so they live beside that test.
 */

#ifndef UNISTC_TESTS_BUFFERS_HH
#define UNISTC_TESTS_BUFFERS_HH

#include "bbc/block_pattern.hh"
#include "sim/config.hh"

namespace unistc
{

/** Paper buffer capacities (bytes). */
constexpr int kMetaBufferBytes = 144;
constexpr int kMatrixABufferBytes = 2048;
constexpr int kAccumBufferBytes = 1024;

/**
 * Meta Buffer occupancy of one MM task: per operand block the Lv1
 * bitmap (2 B) plus one Lv2 bitmap (2 B) per nonzero tile, plus one
 * ValPtr_Lv2 offset (1 B) per nonzero tile for the value-holding
 * operands A and B (C's targets are ranks computed by the DPG, so C
 * ships bitmaps only).
 */
int metaBufferBytesMm(const BlockPattern &a, const BlockPattern &b);

/** Meta Buffer occupancy of one MV task (x ships one 2 B mask). */
int metaBufferBytesMv(const BlockPattern &a);

/** Matrix A buffer occupancy: the block's packed values. */
int aBufferBytes(const BlockPattern &a, const MachineConfig &cfg);

/**
 * Accumulator occupancy: one partial sum per T4 segment live in the
 * widest cycle — bounded by the MAC count (every segment holds >= 1
 * product), hence by macCount * bytes <= 1 KB at FP64/64 MACs... the
 * exact per-task bound is segments-in-flight; this returns the
 * worst case for the task (<= 256 outputs).
 */
int accumBufferBytes(const BlockPattern &a, const BlockPattern &b,
                     const MachineConfig &cfg);

} // namespace unistc

#endif // UNISTC_TESTS_BUFFERS_HH
