/**
 * @file
 * On-disk schema of the results warehouse (warehouse.hh).
 *
 * A warehouse is a directory of runs; one bench run = one commit:
 *
 *   <dir>/<run-id>/META          text commit record (key=value lines)
 *   <dir>/<run-id>/COMMIT        marker, written last on clean close
 *   <dir>/<run-id>/strings.dict  string table, one escaped line per id
 *   <dir>/<run-id>/r_<col>.bin   result columns (one file per column)
 *   <dir>/<run-id>/e_<col>.bin   engine-pass columns
 *
 * Column files are append-only binary: an 8-byte header (magic,
 * schema version, element width) followed by little-endian elements.
 * Strings (kernel/model/matrix names) are dictionary-encoded as u32
 * ids into strings.dict; numeric columns are u64 (doubles stored as
 * their IEEE-754 bit pattern, so round-trips are bit-exact). A
 * truncated file — crashed or killed bench — loses at most the
 * partial trailing element: readers recover the longest consistent
 * row prefix instead of failing.
 */

#ifndef UNISTC_WH_SCHEMA_HH
#define UNISTC_WH_SCHEMA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engine/kernel_pipeline.hh"
#include "robust/status.hh"
#include "sim/result.hh"

namespace unistc
{
namespace warehouse
{

/** Whole-store schema version; readers reject anything newer. */
inline constexpr int kSchemaVersion = 1;

/** Column file magic, serialised as the bytes 'U' 'C' 'O' 'L'. */
inline constexpr char kColumnMagic[4] = {'U', 'C', 'O', 'L'};

/** Size of the column file header in bytes. */
inline constexpr std::size_t kColumnHeaderBytes = 8;

/** Element encoding of one column. */
enum class ColType : std::uint8_t
{
    U32, ///< Little-endian uint32 (dictionary ids, flags).
    U64, ///< Little-endian uint64 (counters).
    F64, ///< IEEE-754 double bit pattern in a little-endian uint64.
};

/** Element width in bytes. */
std::size_t colWidth(ColType t);

/** One column of a row group. */
struct ColumnDef
{
    const char *name; ///< File stem ("cycles" -> r_cycles.bin).
    ColType type;
};

/**
 * Result-row columns, in pack order: the string-dictionary columns
 * (kernel, model, matrix) followed by the numeric payload produced
 * by packResult().
 */
const std::vector<ColumnDef> &resultColumns();

/** Engine-row columns: (kernel, matrix) dict ids + packEngine(). */
const std::vector<ColumnDef> &engineColumns();

/** Dictionary-id columns leading resultColumns()/engineColumns(). */
inline constexpr std::size_t kResultDictColumns = 3;
inline constexpr std::size_t kEngineDictColumns = 2;

/** One per-(kernel, model, matrix) metric row. */
struct ResultRow
{
    std::string kernel;
    std::string model;
    std::string matrix;
    RunResult result;
};

/** One engine pass (shared task stream fan-out) row. */
struct EngineRow
{
    std::string kernel;
    std::string matrix;
    PipelineCounters counters;
    bool timed = false;
};

/**
 * Numeric payload of a result row, one u64 slot per numeric column
 * of resultColumns() (doubles bit-cast). The 4-bucket utilisation
 * histogram is stored exploded (lo, hi, total, nan, b0..b3) so the
 * row is fixed-width.
 */
std::vector<std::uint64_t> packResult(const RunResult &res);

/**
 * Rebuild a RunResult from packResult() slots — bit-exact, including
 * the histogram (counts are replayed into the original buckets).
 * Typed error when the slots are internally inconsistent.
 */
Result<RunResult> unpackResult(const std::vector<std::uint64_t> &s);

/** Numeric payload of an engine row. */
std::vector<std::uint64_t> packEngine(const PipelineCounters &c,
                                      bool timed);

/** Inverse of packEngine(). */
void unpackEngine(const std::vector<std::uint64_t> &s,
                  PipelineCounters *c, bool *timed);

/**
 * %-escape @p s for single-line storage (META values, dictionary
 * lines): '%', newline, carriage return — and nothing else, so the
 * common case stays readable.
 */
std::string escapeField(const std::string &s);

/** Inverse of escapeField(); typed error on malformed escapes. */
Result<std::string> unescapeField(const std::string &s);

} // namespace warehouse
} // namespace unistc

#endif // UNISTC_WH_SCHEMA_HH
