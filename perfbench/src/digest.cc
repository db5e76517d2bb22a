#include "digest.hh"

#include <cstdio>
#include <cstring>

#include "bench.hh"

namespace perfbench
{

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const unistc::RunResult &r)
{
    add(r.cycles);
    add(r.products);
    add(r.macSlots);
    add(r.energy.fetchA);
    add(r.energy.fetchB);
    add(r.energy.writeC);
    add(r.energy.schedule);
    add(r.energy.compute);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
runDigest(const PassResult &pass)
{
    Digest d;
    for (const Op &op : pass.ops) {
        d.add(op.name);
        d.add(op.digest);
    }
    d.add(pass.tailDigest);
    return d.value();
}

} // namespace perfbench
