/**
 * @file
 * Named statistics registry in the gem5 tradition: components export
 * their counters, derived scalars, histograms and labels under
 * hierarchical dotted names ("models.Uni-STC.traffic.readsA"), and
 * exporters walk the registry instead of knowing every struct field.
 * The hot path keeps accumulating into plain RunResult fields; the
 * registry is the *export* surface filled once per run.
 */

#ifndef UNISTC_OBS_STAT_REGISTRY_HH
#define UNISTC_OBS_STAT_REGISTRY_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace unistc
{

/** Kind of a registered statistic. */
enum class StatKind
{
    Counter,   ///< Monotonic event count (uint64).
    Scalar,    ///< Derived floating-point quantity.
    Text,      ///< Label/metadata (not merged numerically).
    Histogram, ///< Fixed-bucket distribution.
};

/** Printable kind name ("counter", ...). */
const char *toString(StatKind kind);

/**
 * Registry of named statistics with deterministic (sorted) order.
 *
 * Thread safety: every member serialises on an internal mutex, so
 * concurrent registration from several threads is safe. Accessors
 * returning references (text(), histogram(), description()) hand out
 * stable map-node storage; mutating the *same* entry while another
 * thread reads that reference is still a caller-side race — shard
 * per thread and merge() afterwards instead.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &other);
    StatRegistry &operator=(const StatRegistry &other);

    void setCounter(const std::string &name, std::uint64_t v,
                    const std::string &desc = "");

    /** Add @p delta to a counter, creating it at zero if absent. */
    void addCounter(const std::string &name, std::uint64_t delta,
                    const std::string &desc = "");

    void setScalar(const std::string &name, double v,
                   const std::string &desc = "");

    void setText(const std::string &name, const std::string &v,
                 const std::string &desc = "");

    void setHistogram(const std::string &name, const Histogram &h,
                      const std::string &desc = "");

    bool has(const std::string &name) const;

    /** Kind of an existing entry; asserts when absent. */
    StatKind kind(const std::string &name) const;

    /** Typed accessors; assert on missing name or kind mismatch. */
    std::uint64_t counter(const std::string &name) const;
    double scalar(const std::string &name) const;
    const std::string &text(const std::string &name) const;
    const Histogram &histogram(const std::string &name) const;

    /** Description attached at registration ("" when none). */
    const std::string &description(const std::string &name) const;

    /** All names in sorted order. */
    std::vector<std::string> names() const;

    std::size_t size() const;
    bool empty() const { return size() == 0; }
    void clear();

    /**
     * Fold another registry into this one: counters and scalars add,
     * histograms merge (same shape required), text entries copy when
     * absent and must agree when present. Kind mismatches are
     * simulator bugs (assert).
     */
    void merge(const StatRegistry &other);

    /**
     * Write the registry body as one JSON object: counters as
     * integers, scalars as numbers, text as strings and histograms as
     * {"lo", "hi", "counts", "total"} objects. (The schema envelope
     * lives in metrics_export.)
     */
    void writeJson(std::ostream &os, int indent = 2) const;

  private:
    struct Entry
    {
        StatKind kind = StatKind::Counter;
        std::uint64_t c = 0;
        double d = 0.0;
        std::string s;
        Histogram h;
        std::string desc;
    };

    /** Lookup without locking; callers hold mu_. */
    const Entry &find(const std::string &name) const;

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
};

} // namespace unistc

#endif // UNISTC_OBS_STAT_REGISTRY_HH
