/**
 * @file
 * Write side of the results warehouse: RunWriter appends one run — a
 * commit record plus per-(kernel, model, matrix) metric rows — to a
 * warehouse directory (schema.hh). Its one producer is perfbench's
 * suite_lineup workload, which times the write as its
 * report.warehouse layer; reader.hh reads runs back for the tests.
 *
 * Durability: every append is written through to the OS immediately
 * (fflush) and fsync'd in small batches, so a killed writer leaves a
 * run that reads back up to the failure point. finalize() seals the
 * run: the row totals are appended to META, everything is fsync'd,
 * and a COMMIT marker is written last; a run without COMMIT reads
 * back as partial but valid.
 *
 * Concurrency: appends are mutex-serialised; run-directory
 * allocation uses mkdir() atomicity so concurrent writers sharing
 * one warehouse always get distinct run ids.
 */

#ifndef UNISTC_WH_WAREHOUSE_HH
#define UNISTC_WH_WAREHOUSE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "robust/status.hh"
#include "warehouse/schema.hh"

namespace unistc
{
namespace warehouse
{

/** Where a run goes and what its commit record (META) names. */
struct RunWriterOptions
{
    std::string dir;   ///< Warehouse root (created when absent).
    std::string bench; ///< Producer ("perfbench_suite_lineup").
    /** Rows per fsync batch; <= 0 fsyncs only at finalize(). */
    int fsyncEvery = 16;
};

/** Appends one run; see the file header for the contract. */
class RunWriter
{
  public:
    /**
     * Allocate the next run directory under opt.dir, write the
     * open-time META record and return the writer. Typed error when
     * the directory cannot be created or written.
     */
    static Result<std::unique_ptr<RunWriter>>
    open(const RunWriterOptions &opt);

    /** Closes files. Does NOT commit: an unfinalized run stays
     * partial on disk (that is the crash story, not a leak). */
    ~RunWriter();

    RunWriter(const RunWriter &) = delete;
    RunWriter &operator=(const RunWriter &) = delete;

    /** Append one metric row (thread-safe, incremental flush). */
    void appendResult(const ResultRow &row);

    /** Append one engine-pass row (thread-safe). */
    void appendEngine(const EngineRow &row);

    /**
     * Seal the run: flush + fsync every file, append the row totals
     * to META, then write the COMMIT marker.
     * Idempotent; appends after finalize() are a lifecycle bug.
     */
    Status finalize();

    const std::string &runId() const { return runId_; }
    const std::string &runDir() const { return runDir_; }
    std::uint64_t resultRows() const;
    std::uint64_t engineRows() const;

  private:
    RunWriter() = default;

    /** Open (create + header) every column file of a group. */
    Status openColumns(const std::vector<ColumnDef> &defs,
                       const char *prefix,
                       std::vector<std::FILE *> *out);

    /** Dictionary id of @p s, appending a new entry when needed. */
    std::uint32_t dictId(const std::string &s);

    Status writeSlot(std::FILE *f, ColType type, std::uint64_t v);

    /** fflush every open file; fsync too when @p sync. */
    void flushAll(bool sync);

    mutable std::mutex mu_;
    std::string runId_;
    std::string runDir_;
    int fsyncEvery_ = 16;
    bool finalized_ = false;
    bool ioFailed_ = false; ///< Warn once, then degrade silently.

    std::FILE *meta_ = nullptr;
    std::FILE *dict_ = nullptr;
    std::map<std::string, std::uint32_t> dictIds_;
    std::vector<std::FILE *> resultCols_;
    std::vector<std::FILE *> engineCols_;
    std::uint64_t resultRows_ = 0;
    std::uint64_t engineRows_ = 0;
    std::uint64_t sinceSync_ = 0;
};

/** True when @p s is a valid warehouse run id ("000042"). */
bool isRunId(const std::string &s);

} // namespace warehouse
} // namespace unistc

#endif // UNISTC_WH_WAREHOUSE_HH
