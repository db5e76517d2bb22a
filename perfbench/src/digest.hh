/**
 * @file
 * Result digests: FNV-1a over the simulated outputs of a pass, so a
 * run can be compared with another run and with the committed
 * expected value (expected_digests.txt) without storing the outputs.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>

#include "sim/result.hh"

namespace perfbench
{

class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v); ///< Exact bits.
    void add(const std::string &s);

    /** Cycles, products, MAC slots and every energy component. */
    void add(const unistc::RunResult &r);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** 16 lowercase hex digits. */
std::string hex(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
