#include "warehouse/warehouse.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_WAREHOUSE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#else
#define UNISTC_WAREHOUSE_POSIX 0
#endif

namespace unistc
{
namespace warehouse
{

namespace fs = std::filesystem;

namespace
{

/** fsync a stdio stream (no-op off POSIX). */
void
syncFile(std::FILE *f)
{
#if UNISTC_WAREHOUSE_POSIX
    if (f != nullptr)
        ::fsync(fileno(f));
#else
    (void)f;
#endif
}

/** Little-endian fixed-width append. */
bool
writeLe(std::FILE *f, std::uint64_t v, std::size_t width)
{
    unsigned char buf[8];
    for (std::size_t i = 0; i < width; ++i)
        buf[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    return std::fwrite(buf, 1, width, f) == width;
}

/**
 * Highest allocatable run id: formatRunId() must keep the fixed
 * 6-digit form isRunId() recognises. One past this and a 7-digit
 * directory name would be invisible to the next scan, restarting
 * numbering at 000001 and racing writers into old directories —
 * allocation fails with a clear Status instead.
 */
constexpr unsigned kMaxRunId = 999999;

std::string
formatRunId(unsigned seq)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%06u", seq);
    return buf;
}

} // namespace

bool
isRunId(const std::string &s)
{
    if (s.size() != 6)
        return false;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
    }
    return true;
}

Result<std::unique_ptr<RunWriter>>
RunWriter::open(const RunWriterOptions &opt)
{
    using Ptr = std::unique_ptr<RunWriter>;
    if (opt.dir.empty()) {
        return Result<Ptr>(
            invalidArgument("warehouse directory is empty"));
    }
    std::error_code ec;
    fs::create_directories(opt.dir, ec);
    if (ec) {
        return Result<Ptr>(ioError("cannot create warehouse '" +
                                   opt.dir + "': " + ec.message()));
    }

    // Next run id: one past the highest existing id. mkdir() is the
    // arbiter — two processes scanning concurrently race to the same
    // seq, exactly one create_directory succeeds, the loser retries
    // with the next number.
    unsigned seq = 1;
    for (const auto &entry : fs::directory_iterator(opt.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (isRunId(name))
            seq = std::max(seq, 1 +
                static_cast<unsigned>(std::stoul(name)));
    }
    Ptr w(new RunWriter());
    for (; seq <= kMaxRunId; ++seq) {
        const fs::path dir = fs::path(opt.dir) / formatRunId(seq);
        std::error_code mkec;
        if (fs::create_directory(dir, mkec) && !mkec) {
            w->runId_ = formatRunId(seq);
            w->runDir_ = dir.string();
            break;
        }
        if (mkec && mkec != std::errc::file_exists) {
            return Result<Ptr>(
                ioError("cannot create run directory '" +
                        dir.string() + "': " + mkec.message()));
        }
    }
    if (w->runDir_.empty()) {
        return Result<Ptr>(internalError(
            "warehouse run id space exhausted in '" + opt.dir +
            "': run " + formatRunId(kMaxRunId) + " already exists; "
            "archive or rotate the warehouse directory"));
    }
    w->fsyncEvery_ = opt.fsyncEvery;

    const std::string metaPath = w->runDir_ + "/META";
    w->meta_ = std::fopen(metaPath.c_str(), "wb");
    if (w->meta_ == nullptr) {
        return Result<Ptr>(ioError("cannot open '" + metaPath +
                                   "': " + std::strerror(errno)));
    }
    // The open-time commit record. Counters and row totals are
    // appended by finalize(); a crashed run keeps this prefix.
    std::string head;
    head += "schema=" + std::to_string(kSchemaVersion) + "\n";
    head += "run=" + w->runId_ + "\n";
    head += "bench=" + escapeField(opt.bench) + "\n";
    if (!opt.label.empty())
        head += "label=" + escapeField(opt.label) + "\n";
    if (!opt.gitSha.empty())
        head += "git_sha=" + escapeField(opt.gitSha) + "\n";
    if (!opt.timeIso.empty())
        head += "time=" + escapeField(opt.timeIso) + "\n";
    std::string argvLine;
    for (const std::string &a : opt.argv) {
        if (!argvLine.empty())
            argvLine += ' ';
        argvLine += a;
    }
    if (!argvLine.empty())
        head += "argv=" + escapeField(argvLine) + "\n";
    for (const auto &[k, v] : opt.env)
        head += "env." + escapeField(k) + "=" + escapeField(v) + "\n";
    if (std::fwrite(head.data(), 1, head.size(), w->meta_) !=
        head.size()) {
        return Result<Ptr>(ioError("short write on '" + metaPath +
                                   "'"));
    }
    std::fflush(w->meta_);
    syncFile(w->meta_);

    const std::string dictPath = w->runDir_ + "/strings.dict";
    w->dict_ = std::fopen(dictPath.c_str(), "wb");
    if (w->dict_ == nullptr) {
        return Result<Ptr>(ioError("cannot open '" + dictPath +
                                   "': " + std::strerror(errno)));
    }
    return Result<Ptr>(std::move(w));
}

RunWriter::~RunWriter()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::FILE *f : resultCols_) {
        if (f != nullptr)
            std::fclose(f);
    }
    for (std::FILE *f : engineCols_) {
        if (f != nullptr)
            std::fclose(f);
    }
    if (dict_ != nullptr)
        std::fclose(dict_);
    if (meta_ != nullptr)
        std::fclose(meta_);
}

Status
RunWriter::openColumns(const std::vector<ColumnDef> &defs,
                       const char *prefix,
                       std::vector<std::FILE *> *out)
{
    out->reserve(defs.size());
    for (const ColumnDef &def : defs) {
        const std::string path = runDir_ + "/" + prefix + def.name +
                                 ".bin";
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) {
            return ioError("cannot open column '" + path +
                           "': " + std::strerror(errno));
        }
        // Header: magic, schema version (u16 LE), width (u16 LE).
        unsigned char hdr[kColumnHeaderBytes];
        std::memcpy(hdr, kColumnMagic, 4);
        hdr[4] = static_cast<unsigned char>(kSchemaVersion & 0xff);
        hdr[5] = static_cast<unsigned char>((kSchemaVersion >> 8) &
                                            0xff);
        const std::size_t width = colWidth(def.type);
        hdr[6] = static_cast<unsigned char>(width & 0xff);
        hdr[7] = static_cast<unsigned char>((width >> 8) & 0xff);
        if (std::fwrite(hdr, 1, sizeof(hdr), f) != sizeof(hdr)) {
            std::fclose(f);
            return ioError("short header write on '" + path + "'");
        }
        out->push_back(f);
    }
    return Status::okStatus();
}

std::uint32_t
RunWriter::dictId(const std::string &s)
{
    const auto it = dictIds_.find(s);
    if (it != dictIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(dictIds_.size());
    dictIds_.emplace(s, id);
    // The dictionary line lands before any column data referencing
    // the id is flushed (flushAll syncs the dict first), so readers
    // recovering a torn run drop rows, never misname them.
    const std::string line = escapeField(s) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), dict_) !=
        line.size()) {
        ioFailed_ = true;
    }
    return id;
}

Status
RunWriter::writeSlot(std::FILE *f, ColType type, std::uint64_t v)
{
    if (!writeLe(f, v, colWidth(type)))
        return ioError("short column write");
    return Status::okStatus();
}

void
RunWriter::flushAll(bool sync)
{
    // Dictionary first: column bytes must never be more durable than
    // the strings their ids point at.
    std::fflush(dict_);
    if (sync)
        syncFile(dict_);
    for (std::FILE *f : resultCols_)
        std::fflush(f);
    for (std::FILE *f : engineCols_)
        std::fflush(f);
    if (sync) {
        for (std::FILE *f : resultCols_)
            syncFile(f);
        for (std::FILE *f : engineCols_)
            syncFile(f);
    }
}

void
RunWriter::appendResult(const ResultRow &row)
{
    std::lock_guard<std::mutex> lock(mu_);
    UNISTC_ASSERT(!finalized_,
                  "appendResult on a finalized warehouse run");
    if (resultCols_.empty()) {
        if (Status s = openColumns(resultColumns(), "r_",
                                   &resultCols_);
            !s.ok()) {
            if (!ioFailed_)
                UNISTC_WARN("warehouse append failed: ",
                            s.message());
            ioFailed_ = true;
            return;
        }
    }
    std::vector<std::uint64_t> slots;
    slots.reserve(resultColumns().size());
    slots.push_back(dictId(row.kernel));
    slots.push_back(dictId(row.model));
    slots.push_back(dictId(row.matrix));
    for (const std::uint64_t v : packResult(row.result))
        slots.push_back(v);
    const auto &defs = resultColumns();
    for (std::size_t c = 0; c < defs.size(); ++c) {
        if (Status s = writeSlot(resultCols_[c], defs[c].type,
                                 slots[c]);
            !s.ok() && !ioFailed_) {
            UNISTC_WARN("warehouse append failed: ", s.message());
            ioFailed_ = true;
        }
    }
    ++resultRows_;
    ++sinceSync_;
    flushAll(fsyncEvery_ > 0 &&
             sinceSync_ >= static_cast<std::uint64_t>(fsyncEvery_));
    if (fsyncEvery_ > 0 &&
        sinceSync_ >= static_cast<std::uint64_t>(fsyncEvery_))
        sinceSync_ = 0;
}

void
RunWriter::appendEngine(const EngineRow &row)
{
    std::lock_guard<std::mutex> lock(mu_);
    UNISTC_ASSERT(!finalized_,
                  "appendEngine on a finalized warehouse run");
    if (engineCols_.empty()) {
        if (Status s = openColumns(engineColumns(), "e_",
                                   &engineCols_);
            !s.ok()) {
            if (!ioFailed_)
                UNISTC_WARN("warehouse append failed: ",
                            s.message());
            ioFailed_ = true;
            return;
        }
    }
    std::vector<std::uint64_t> slots;
    slots.reserve(engineColumns().size());
    slots.push_back(dictId(row.kernel));
    slots.push_back(dictId(row.matrix));
    for (const std::uint64_t v : packEngine(row.counters, row.timed))
        slots.push_back(v);
    const auto &defs = engineColumns();
    for (std::size_t c = 0; c < defs.size(); ++c) {
        if (Status s = writeSlot(engineCols_[c], defs[c].type,
                                 slots[c]);
            !s.ok() && !ioFailed_) {
            UNISTC_WARN("warehouse append failed: ", s.message());
            ioFailed_ = true;
        }
    }
    ++engineRows_;
    ++sinceSync_;
    flushAll(fsyncEvery_ > 0 &&
             sinceSync_ >= static_cast<std::uint64_t>(fsyncEvery_));
    if (fsyncEvery_ > 0 &&
        sinceSync_ >= static_cast<std::uint64_t>(fsyncEvery_))
        sinceSync_ = 0;
}

std::uint64_t
RunWriter::resultRows() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return resultRows_;
}

std::uint64_t
RunWriter::engineRows() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return engineRows_;
}

Status
RunWriter::finalize()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return Status::okStatus();
    finalized_ = true;
    flushAll(/*sync=*/true);

    // Close-time commit fields: the row totals.
    std::string tail;
    tail += "rows.results=" + std::to_string(resultRows_) + "\n";
    tail += "rows.engine=" + std::to_string(engineRows_) + "\n";
    if (std::fwrite(tail.data(), 1, tail.size(), meta_) !=
        tail.size()) {
        return ioError("short write appending row totals to META");
    }
    std::fflush(meta_);
    syncFile(meta_);
    if (ioFailed_) {
        // Rows were lost: leave the run uncommitted so readers see
        // it as partial rather than trusting an incomplete commit.
        return ioError("warehouse run '" + runId_ +
                       "' had append failures; left uncommitted");
    }

    const std::string commitPath = runDir_ + "/COMMIT";
    std::FILE *commit = std::fopen(commitPath.c_str(), "wb");
    if (commit == nullptr) {
        return ioError("cannot open '" + commitPath +
                       "': " + std::strerror(errno));
    }
    const char ok[] = "ok\n";
    const bool wrote = std::fwrite(ok, 1, 3, commit) == 3;
    std::fflush(commit);
    syncFile(commit);
    std::fclose(commit);
    if (!wrote)
        return ioError("short write on '" + commitPath + "'");
#if UNISTC_WAREHOUSE_POSIX
    // Make the COMMIT directory entry itself durable.
    const int dfd = ::open(runDir_.c_str(), O_RDONLY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
#endif
    return Status::okStatus();
}

} // namespace warehouse
} // namespace unistc
