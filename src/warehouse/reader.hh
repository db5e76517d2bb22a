/**
 * @file
 * Read side of the results warehouse: enumerate runs, resolve
 * selectors ("latest", a run id, a label) and load rows back into
 * the in-memory types the writer started from (schema.hh).
 *
 * Recovery contract: a run that crashed mid-append — no COMMIT
 * marker, possibly torn column files — still loads. The reader takes
 * the longest consistent row prefix (minimum whole-element count
 * across the group's columns) and drops any trailing rows whose
 * dictionary ids never made it to disk; it never invents data.
 * Runs written by a NEWER schema are rejected with a typed error.
 */

#ifndef UNISTC_WAREHOUSE_READER_HH
#define UNISTC_WAREHOUSE_READER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "robust/status.hh"
#include "warehouse/schema.hh"

namespace unistc
{
namespace warehouse
{

/** Decoded META commit record of one run. */
struct RunMeta
{
    std::string id;     ///< "000042".
    std::string dir;    ///< Absolute-ish run directory path.
    int schema = 0;     ///< Writer's schema version.
    std::string bench;  ///< Producing harness name.
    std::string label;  ///< Optional user tag ("" when untagged).
    std::string gitSha;
    std::string time;   ///< ISO-8601 UTC start time ("" if unknown).
    std::string argvLine;
    std::vector<std::pair<std::string, std::string>> env;
    /** Row totals recorded at finalize (absent on crashed runs). */
    std::uint64_t declaredResultRows = 0;
    std::uint64_t declaredEngineRows = 0;
    bool hasDeclaredRows = false;
    bool committed = false; ///< COMMIT marker present.
};

/** One fully-loaded run: commit record + decoded rows. */
struct RunData
{
    RunMeta meta;
    std::vector<ResultRow> results;
    std::vector<EngineRow> engine;
    /** Rows dropped by truncation recovery (0 on clean runs). */
    std::uint64_t recoveredDrops = 0;
};

/** Enumerates and loads runs of one warehouse directory. */
class WarehouseReader
{
  public:
    explicit WarehouseReader(std::string dir) : dir_(std::move(dir))
    {
    }

    /**
     * Commit records of every run, ascending by run id. Runs whose
     * META is unreadable or from a newer schema are skipped with a
     * warning — one bad run must not hide the rest of the store.
     */
    std::vector<RunMeta> runs() const;

    /**
     * Resolve a run selector to a loadable run id:
     *   "latest"        -> newest run (of @p bench when non-empty),
     *   "000042"        -> that run id verbatim,
     *   anything else   -> newest run whose META label matches.
     */
    Result<std::string> resolve(const std::string &selector,
                                const std::string &bench = "") const;

    /** Load one run's rows; see the file header for recovery. */
    Result<RunData> load(const std::string &runId) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

/** Parse one run directory's META (exposed for tests). */
Result<RunMeta> readRunMeta(const std::string &runDir,
                            const std::string &runId);

} // namespace warehouse
} // namespace unistc

#endif // UNISTC_WAREHOUSE_READER_HH
