/**
 * @file
 * Read side of the results warehouse: enumerate runs and load rows
 * back into the in-memory types the writer started from (schema.hh).
 * It is the read-back oracle of the writer's tests; no binary reads
 * a warehouse.
 *
 * Recovery contract: a run that crashed mid-append — no COMMIT
 * marker, possibly torn column files — still loads. The reader takes
 * the longest consistent row prefix (minimum whole-element count
 * across the group's columns) and drops any trailing rows whose
 * dictionary ids never made it to disk; it never invents data.
 * Runs written by a NEWER schema are rejected with a typed error.
 */

#ifndef UNISTC_WH_READER_HH
#define UNISTC_WH_READER_HH

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
    int schema = 0;     ///< Writer's schema version.
    std::string bench;  ///< Producer name.
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

    /** Load one run's rows; see the file header for recovery. */
    Result<RunData> load(const std::string &runId) const;

  private:
    std::string dir_;
};

/** Parse one run directory's META (exposed for tests). */
Result<RunMeta> readRunMeta(const std::string &runDir,
                            const std::string &runId);

} // namespace warehouse
} // namespace unistc

#endif // UNISTC_WH_READER_HH
