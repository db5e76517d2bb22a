#include "robust/checkpoint.hh"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_CHECKPOINT_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/logging.hh"

namespace unistc
{

namespace
{

/** Line magic: bump when the field list changes. */
constexpr const char *kLineTag = "unistc-ckpt-v1";

/** Tokens per line: tag + 3 names + 13 counters + 5 energies +
 *  1 histogram. Kept in sync with the codec below. */
constexpr std::size_t kEntryTokens = 1 + 3 + 13 + 5 + 1;

/** %-escape spaces, percent signs and control characters. */
std::string
escapeToken(const std::string &s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '%' || c == ' ' || std::iscntrl(c)) {
            out.push_back('%');
            out.push_back(hex[c >> 4]);
            out.push_back(hex[c & 0xF]);
        } else {
            out.push_back(static_cast<char>(c));
        }
    }
    return out;
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/** Undo escapeToken; false on a malformed escape. */
bool
unescapeToken(const std::string &s, std::string &out)
{
    out.clear();
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out.push_back(s[i]);
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        const int hi = hexDigit(s[i + 1]);
        const int lo = hexDigit(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
    }
    return true;
}

/** Lower-case hex of @p v, no leading zeros ("0" for zero). */
std::string
u64Hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

/** Bit-exact double encoding: the hex of the IEEE-754 pattern. */
std::string
doubleHex(double d)
{
    return u64Hex(std::bit_cast<std::uint64_t>(d));
}

/** Parse u64Hex output; false on empty/overlong/non-hex. */
bool
parseU64Hex(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() || tok.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (char c : tok) {
        const int d = hexDigit(c);
        if (d < 0)
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    out = v;
    return true;
}

/** Parse doubleHex output (bit-exact round trip). */
bool
parseDoubleHex(const std::string &tok, double &out)
{
    std::uint64_t bits = 0;
    if (!parseU64Hex(tok, bits))
        return false;
    out = std::bit_cast<double>(bits);
    return true;
}

/** Histogram as n:lo-bits:hi-bits:c0,c1,... ("0" when default). */
std::string
encodeHistogram(const Histogram &h)
{
    const int n = h.numBuckets();
    if (n == 0)
        return "0";
    std::ostringstream os;
    os << n << ":" << doubleHex(h.bucketLo(0)) << ":"
       << doubleHex(h.bucketHi(n - 1)) << ":";
    for (int b = 0; b < n; ++b) {
        if (b > 0)
            os << ",";
        os << u64Hex(h.bucketCount(b));
    }
    return os.str();
}

bool
decodeHistogram(const std::string &tok, Histogram &out)
{
    if (tok == "0") {
        out = Histogram();
        return true;
    }
    std::istringstream is(tok);
    std::string n_tok, lo_tok, hi_tok, counts_tok;
    if (!std::getline(is, n_tok, ':') ||
        !std::getline(is, lo_tok, ':') ||
        !std::getline(is, hi_tok, ':') ||
        !std::getline(is, counts_tok))
        return false;
    long n = 0;
    {
        char *end = nullptr;
        n = std::strtol(n_tok.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || n <= 0 || n > 1 << 20)
            return false;
    }
    double lo = 0, hi = 0;
    if (!parseDoubleHex(lo_tok, lo) || !parseDoubleHex(hi_tok, hi) ||
        !(hi > lo))
        return false;
    Histogram h(static_cast<int>(n), lo, hi);
    std::istringstream cs(counts_tok);
    std::string c_tok;
    const double width = (hi - lo) / static_cast<double>(n);
    for (long b = 0; b < n; ++b) {
        if (!std::getline(cs, c_tok, ','))
            return false;
        std::uint64_t count = 0;
        if (!parseU64Hex(c_tok, count))
            return false;
        if (count > 0) {
            // Re-add at the bucket midpoint: lands back in bucket b.
            h.add(lo + width * (static_cast<double>(b) + 0.5), count);
        }
    }
    if (std::getline(cs, c_tok, ','))
        return false; // more counts than buckets
    out = h;
    return true;
}

} // namespace

std::string
checkpointKey(const std::string &kernel, const std::string &model,
              const std::string &matrix)
{
    return escapeToken(kernel) + " " + escapeToken(model) + " " +
           escapeToken(matrix);
}

std::string
CheckpointEntry::key() const
{
    return checkpointKey(kernel, model, matrix);
}

std::string
encodeCheckpointEntry(const CheckpointEntry &e)
{
    const RunResult &r = e.result;
    std::ostringstream os;
    os << kLineTag << " " << e.key();
    for (std::uint64_t v :
         {r.cycles, r.products, r.macSlots, r.tasksT1, r.tasksT3,
          r.stallCycles, r.dpgActiveAccum, r.cNetScaleAccum,
          r.traffic.readsA, r.traffic.wastedA, r.traffic.readsB,
          r.traffic.wastedB, r.traffic.writesC})
        os << " " << u64Hex(v);
    for (double v : {r.energy.fetchA, r.energy.fetchB,
                     r.energy.writeC, r.energy.schedule,
                     r.energy.compute})
        os << " " << doubleHex(v);
    os << " " << encodeHistogram(r.utilHist);
    return os.str();
}

Result<CheckpointEntry>
decodeCheckpointEntry(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> toks;
    std::string tok;
    while (is >> tok)
        toks.push_back(tok);
    if (toks.size() != kEntryTokens || toks[0] != kLineTag) {
        return corruptData("checkpoint line is not a " +
                           std::string(kLineTag) + " record");
    }
    CheckpointEntry e;
    if (!unescapeToken(toks[1], e.kernel) ||
        !unescapeToken(toks[2], e.model) ||
        !unescapeToken(toks[3], e.matrix))
        return corruptData("checkpoint line has a bad name escape");
    RunResult &r = e.result;
    std::uint64_t *counters[] = {
        &r.cycles,          &r.products,       &r.macSlots,
        &r.tasksT1,         &r.tasksT3,        &r.stallCycles,
        &r.dpgActiveAccum,  &r.cNetScaleAccum, &r.traffic.readsA,
        &r.traffic.wastedA, &r.traffic.readsB, &r.traffic.wastedB,
        &r.traffic.writesC};
    for (std::size_t i = 0; i < 13; ++i) {
        if (!parseU64Hex(toks[4 + i], *counters[i]))
            return corruptData("checkpoint line has a bad counter");
    }
    double *energies[] = {&r.energy.fetchA, &r.energy.fetchB,
                          &r.energy.writeC, &r.energy.schedule,
                          &r.energy.compute};
    for (std::size_t i = 0; i < 5; ++i) {
        if (!parseDoubleHex(toks[17 + i], *energies[i]))
            return corruptData("checkpoint line has a bad energy");
    }
    if (!decodeHistogram(toks[22], r.utilHist))
        return corruptData("checkpoint line has a bad histogram");
    return e;
}

DurableAppendFile::~DurableAppendFile()
{
    close();
}

void
DurableAppendFile::close()
{
#ifdef UNISTC_CHECKPOINT_POSIX
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
#endif
}

Status
DurableAppendFile::open(const std::string &path)
{
#ifdef UNISTC_CHECKPOINT_POSIX
    close();
    // O_APPEND makes each write(2) an atomic seek-to-end + write, so
    // two processes appending to one log never interleave.
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (fd < 0) {
        return ioError("cannot open '" + path + "' for appending");
    }
    fd_ = fd;
    path_ = path;
    return Status();
#else
    (void)path;
    return failedPrecondition("DurableAppendFile needs a POSIX host");
#endif
}

Status
DurableAppendFile::appendLine(const std::string &line)
{
#ifdef UNISTC_CHECKPOINT_POSIX
    if (fd_ < 0)
        return failedPrecondition("append file is not open");
    std::string rec = line;
    rec.push_back('\n');
    // One write() for the whole record: a kill mid-call tears only
    // this line, never a previously synced one.
    std::size_t off = 0;
    while (off < rec.size()) {
        const ssize_t n =
            ::write(fd_, rec.data() + off, rec.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ioError("write to '" + path_ + "' failed");
        }
        off += static_cast<std::size_t>(n);
    }
#if defined(__APPLE__)
    if (::fsync(fd_) != 0)
#else
    if (::fdatasync(fd_) != 0)
#endif
        return ioError("sync of '" + path_ + "' failed");
    return Status();
#else
    (void)line;
    return failedPrecondition("DurableAppendFile needs a POSIX host");
#endif
}

Status
CheckpointWriter::open(const std::string &path)
{
    Status st = file_.open(path);
    if (!st.ok()) {
        return ioError("cannot open checkpoint '" + path +
                       "' for appending: " + st.message());
    }
    return Status();
}

Status
CheckpointWriter::append(const CheckpointEntry &e)
{
    if (!file_.isOpen())
        return failedPrecondition("checkpoint writer is not open");
    return file_.appendLine(encodeCheckpointEntry(e));
}

Status
atomicWriteFile(const std::string &path, const std::string &bytes)
{
#ifdef UNISTC_CHECKPOINT_POSIX
    // Same-directory temp file so the final rename cannot cross a
    // filesystem boundary.
    const std::string tmp = path + ".tmp." +
        std::to_string(static_cast<long>(::getpid()));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return ioError("cannot create temp file '" + tmp + "'");
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return ioError("write to temp file '" + tmp + "' failed");
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return ioError("sync of temp file '" + tmp + "' failed");
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return ioError("atomic rename over '" + path + "' failed");
    }
    return Status();
#else
    (void)path;
    (void)bytes;
    return failedPrecondition("atomicWriteFile needs a POSIX host");
#endif
}

Status
rewriteCheckpointAtomic(const std::string &path,
                        const std::vector<CheckpointEntry> &entries)
{
    std::string blob;
    for (const CheckpointEntry &e : entries) {
        blob += encodeCheckpointEntry(e);
        blob.push_back('\n');
    }
    return atomicWriteFile(path, blob);
}

Result<CheckpointLog>
CheckpointLog::load(const std::string &path)
{
    CheckpointLog log;
    std::ifstream in(path);
    if (!in) {
        // A missing checkpoint is an empty one: fresh runs and
        // resumed runs share a single code path.
        return log;
    }
    std::string line;
    long line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        Result<CheckpointEntry> entry = decodeCheckpointEntry(line);
        if (!entry.ok()) {
            // A damaged line ends the valid prefix — most often the
            // in-flight entry of an interrupted run.
            UNISTC_WARN("checkpoint '", path, "' line ", line_no,
                        " is corrupt (", entry.status().message(),
                        "); keeping the ", log.entries_.size(),
                        " entries before it");
            log.truncated_ = true;
            break;
        }
        CheckpointEntry e = std::move(entry).value();
        log.byKey_[e.key()].push_back(log.entries_.size());
        log.entries_.push_back(std::move(e));
    }
    return log;
}

const CheckpointEntry *
CheckpointLog::find(const std::string &kernel,
                    const std::string &model,
                    const std::string &matrix,
                    std::size_t occurrence) const
{
    const auto it = byKey_.find(checkpointKey(kernel, model, matrix));
    if (it == byKey_.end() || occurrence >= it->second.size())
        return nullptr;
    return &entries_[it->second[occurrence]];
}

} // namespace unistc
