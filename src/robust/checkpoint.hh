/**
 * @file
 * Bench checkpoint log: an append-only text file of finished
 * (kernel, model, matrix) -> RunResult entries that lets an
 * interrupted sweep resume without recomputing completed jobs
 * (docs/ROBUSTNESS.md).
 *
 * Format: one entry per line, space-separated tokens. Strings are
 * %-escaped; every double is stored as the hex of its IEEE-754 bit
 * pattern, so a resumed sweep reproduces bit-identical results. A
 * corrupt line (interrupted write, disk damage) ends the valid
 * prefix: everything before it is used, everything after discarded.
 *
 * Durability: every record is appended with ONE unbuffered
 * write(2) on an O_APPEND descriptor followed by fdatasync, so a
 * SIGKILL mid-append can only tear the in-flight line, never an
 * earlier one. A log whose tail did get torn is repaired on load
 * via rewriteCheckpointAtomic() — a same-directory temp file,
 * fsync, then an atomic rename over the log — so records appended
 * after a torn line can never become unreachable (the "poisoned
 * --resume" failure mode).
 */

#ifndef UNISTC_ROBUST_CHECKPOINT_HH
#define UNISTC_ROBUST_CHECKPOINT_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "robust/status.hh"
#include "sim/result.hh"

namespace unistc
{

/**
 * On-disk checkpoint line-format version. The format has no header
 * line carrying it (every line is self-describing via its "ckpt"
 * tag); the constant exists so --version can report the dialect a
 * binary writes. Bump alongside any codec change below.
 */
constexpr int kCheckpointFormatVersion = 1;

/** One checkpointed job result. */
struct CheckpointEntry
{
    std::string kernel;
    std::string model;
    std::string matrix;
    RunResult result;

    /** Escaped "kernel model matrix" lookup key. */
    std::string key() const;
};

/** Build the lookup key a CheckpointEntry with these fields has. */
std::string checkpointKey(const std::string &kernel,
                          const std::string &model,
                          const std::string &matrix);

/** Serialize @p e as one checkpoint line (no trailing newline). */
std::string encodeCheckpointEntry(const CheckpointEntry &e);

/** Parse one checkpoint line; typed error on any malformation. */
Result<CheckpointEntry> decodeCheckpointEntry(const std::string &line);

/**
 * A line-oriented append file with crash durability: each line goes
 * out as ONE write(2) on an O_APPEND descriptor and is fdatasync'd,
 * so a SIGKILL can only tear the in-flight line (the loader's
 * prefix-recovery then drops it) and concurrent appenders from
 * different processes never interleave partial lines.
 */
class DurableAppendFile
{
  public:
    DurableAppendFile() = default;
    ~DurableAppendFile();

    DurableAppendFile(const DurableAppendFile &) = delete;
    DurableAppendFile &operator=(const DurableAppendFile &) = delete;

    /** Open (creating if needed) @p path for appending. */
    Status open(const std::string &path);

    /** Append @p line + '\n' as a single write, then sync. */
    Status appendLine(const std::string &line);

    /** Close the descriptor (idempotent). */
    void close();

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    std::string path_;
};

/**
 * Appends entries to a checkpoint file; each entry is one durable
 * single-write append (see DurableAppendFile), so an interrupted run
 * loses at most the in-flight entry (which the loader then drops as
 * a corrupt trailing line) and never tears an earlier one.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter() = default;

    /** Open @p path for appending. */
    Status open(const std::string &path);

    /** Serialize, append in one write, sync. */
    Status append(const CheckpointEntry &e);

    /** Close the underlying descriptor (idempotent). */
    void close() { file_.close(); }

    bool isOpen() const { return file_.isOpen(); }

  private:
    DurableAppendFile file_;
};

/**
 * Durable atomic whole-file replace: write a temp file in the same
 * directory, fsync it, atomically rename over @p path. Readers see
 * either the old file or the new one, never a mix, even across a
 * SIGKILL or power loss mid-write.
 */
Status atomicWriteFile(const std::string &path,
                       const std::string &bytes);

/**
 * Replace @p path with exactly @p entries via atomicWriteFile().
 * Used to repair a checkpoint whose tail a killed run tore, so
 * records appended afterwards are never stranded behind a corrupt
 * line.
 */
Status rewriteCheckpointAtomic(const std::string &path,
                               const std::vector<CheckpointEntry> &entries);

/**
 * In-memory view of a checkpoint file, indexed by key with duplicate
 * keys kept in file order — a sweep that runs the same
 * (kernel, model, matrix) twice consumes its checkpoints in order
 * via the @p occurrence parameter of find().
 */
class CheckpointLog
{
  public:
    /**
     * Load @p path. A missing file is an empty log (a fresh run and
     * a resumed run share one code path); an unreadable or corrupt
     * tail keeps the valid prefix and sets truncated().
     */
    static Result<CheckpointLog> load(const std::string &path);

    /**
     * The @p occurrence-th (0-based) entry whose key matches, in
     * file order; null when fewer matches exist.
     */
    const CheckpointEntry *find(const std::string &kernel,
                                const std::string &model,
                                const std::string &matrix,
                                std::size_t occurrence = 0) const;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** All entries in file order (e.g. for an atomic repair rewrite). */
    const std::vector<CheckpointEntry> &entries() const
    {
        return entries_;
    }

    /** True when a corrupt line cut the file short on load. */
    bool truncated() const { return truncated_; }

  private:
    std::vector<CheckpointEntry> entries_;
    std::unordered_map<std::string, std::vector<std::size_t>> byKey_;
    bool truncated_ = false;
};

} // namespace unistc

#endif // UNISTC_ROBUST_CHECKPOINT_HH
