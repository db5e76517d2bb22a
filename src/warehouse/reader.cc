#include "warehouse/reader.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/logging.hh"
#include "warehouse/warehouse.hh"

namespace unistc
{
namespace warehouse
{

namespace fs = std::filesystem;

namespace
{

/** Whole file as a string ("" + error when unreadable). */
Result<std::string>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return Result<std::string>(ioError(
            "cannot open '" + path + "': " + std::strerror(errno)));
    }
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/**
 * Split into complete lines; an unterminated trailing fragment is a
 * torn write and is dropped, matching the writer's line-at-a-time
 * append discipline.
 */
std::vector<std::string>
completeLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            lines.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return lines;
}

bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *out = v;
    return true;
}

/**
 * One decoded column: whole little-endian elements after a valid
 * header. A missing file or torn header reads as zero elements; a
 * header from a newer schema is a typed error.
 */
Result<std::vector<std::uint64_t>>
readColumn(const std::string &path, ColType type, bool *missing)
{
    using R = Result<std::vector<std::uint64_t>>;
    *missing = false;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        *missing = true;
        return R(std::vector<std::uint64_t>{});
    }
    unsigned char hdr[kColumnHeaderBytes];
    if (std::fread(hdr, 1, sizeof(hdr), f) != sizeof(hdr)) {
        // Torn before the header completed: no rows to recover.
        std::fclose(f);
        return R(std::vector<std::uint64_t>{});
    }
    if (std::memcmp(hdr, kColumnMagic, 4) != 0) {
        std::fclose(f);
        return R(corruptData("'" + path +
                             "' is not a warehouse column file"));
    }
    const int version = hdr[4] | (hdr[5] << 8);
    if (version > kSchemaVersion) {
        std::fclose(f);
        return R(failedPrecondition(
            "'" + path + "' was written by schema version " +
            std::to_string(version) + "; this reader understands <= " +
            std::to_string(kSchemaVersion)));
    }
    const std::size_t width =
        static_cast<std::size_t>(hdr[6] | (hdr[7] << 8));
    if (width != colWidth(type)) {
        std::fclose(f);
        return R(corruptData(
            "'" + path + "' declares " + std::to_string(width) +
            "-byte elements, schema expects " +
            std::to_string(colWidth(type))));
    }
    std::vector<std::uint64_t> vals;
    unsigned char buf[8];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, width, f)) == width) {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
        vals.push_back(v);
    }
    // n < width here: a torn trailing element, silently dropped.
    std::fclose(f);
    return R(std::move(vals));
}

/**
 * All columns of one row group, truncated to the longest consistent
 * row prefix. @p drops counts rows lost to truncation.
 */
Result<std::vector<std::vector<std::uint64_t>>>
readColumnGroup(const std::string &runDir,
                const std::vector<ColumnDef> &defs, const char *prefix,
                std::uint64_t *drops)
{
    using R = Result<std::vector<std::vector<std::uint64_t>>>;
    std::vector<std::vector<std::uint64_t>> cols;
    cols.reserve(defs.size());
    std::size_t minRows = 0, maxRows = 0;
    bool anyPresent = false;
    for (const ColumnDef &def : defs) {
        const std::string path =
            runDir + "/" + prefix + def.name + ".bin";
        bool missing = false;
        auto col = readColumn(path, def.type, &missing);
        if (!col.ok())
            return R(col.status());
        if (!missing)
            anyPresent = true;
        const std::size_t rows = col.value().size();
        if (cols.empty())
            minRows = maxRows = rows;
        minRows = std::min(minRows, rows);
        maxRows = std::max(maxRows, rows);
        cols.push_back(std::move(col).value());
    }
    if (!anyPresent) {
        // The group was never opened: a legal empty run, not a torn
        // one.
        for (auto &c : cols)
            c.clear();
        return R(std::move(cols));
    }
    *drops += maxRows - minRows;
    for (auto &c : cols)
        c.resize(minRows);
    return R(std::move(cols));
}

} // namespace

Result<RunMeta>
readRunMeta(const std::string &runDir, const std::string &runId)
{
    auto text = slurp(runDir + "/META");
    if (!text.ok())
        return Result<RunMeta>(text.status());
    RunMeta meta;
    meta.id = runId;
    for (const std::string &line : completeLines(text.value())) {
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = line.substr(0, eq);
        auto value = unescapeField(line.substr(eq + 1));
        if (!value.ok()) {
            return Result<RunMeta>(corruptData(
                "bad META line in '" + runDir +
                "': " + value.status().message()));
        }
        const std::string &v = value.value();
        std::uint64_t u = 0;
        if (key == "schema") {
            if (!parseU64(v, &u)) {
                return Result<RunMeta>(corruptData(
                    "unparseable schema version in '" + runDir +
                    "/META'"));
            }
            meta.schema = static_cast<int>(u);
        } else if (key == "bench") {
            meta.bench = v;
        } else if (key == "rows.results" && parseU64(v, &u)) {
            meta.declaredResultRows = u;
            meta.hasDeclaredRows = true;
        } else if (key == "rows.engine" && parseU64(v, &u)) {
            meta.declaredEngineRows = u;
            meta.hasDeclaredRows = true;
        }
        // Unknown keys from an older-compatible writer are ignored.
    }
    if (meta.schema <= 0) {
        return Result<RunMeta>(
            corruptData("'" + runDir + "/META' lacks a schema line"));
    }
    if (meta.schema > kSchemaVersion) {
        return Result<RunMeta>(failedPrecondition(
            "run '" + runId + "' was written by schema version " +
            std::to_string(meta.schema) +
            "; this reader understands <= " +
            std::to_string(kSchemaVersion)));
    }
    std::error_code ec;
    meta.committed = fs::exists(fs::path(runDir) / "COMMIT", ec);
    return meta;
}

std::vector<RunMeta>
WarehouseReader::runs() const
{
    std::vector<RunMeta> out;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return out;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        if (!isRunId(name))
            continue;
        auto meta = readRunMeta(entry.path().string(), name);
        if (!meta.ok()) {
            UNISTC_WARN("skipping warehouse run ", name, ": ",
                        meta.status().message());
            continue;
        }
        out.push_back(std::move(meta).value());
    }
    std::sort(out.begin(), out.end(),
              [](const RunMeta &a, const RunMeta &b) {
                  return a.id < b.id;
              });
    return out;
}

Result<RunData>
WarehouseReader::load(const std::string &runId) const
{
    using R = Result<RunData>;
    const std::string runDir =
        (fs::path(dir_) / runId).string();
    auto meta = readRunMeta(runDir, runId);
    if (!meta.ok())
        return R(meta.status());
    RunData data;
    data.meta = std::move(meta).value();

    // The dictionary; a torn trailing line (no newline) is dropped,
    // and any row still pointing past the recovered table is dropped
    // with it below.
    std::vector<std::string> dict;
    {
        auto text = slurp(runDir + "/strings.dict");
        if (text.ok()) {
            for (const std::string &line :
                 completeLines(text.value())) {
                auto s = unescapeField(line);
                if (!s.ok()) {
                    return R(corruptData(
                        "bad dictionary line in run '" + runId +
                        "': " + s.status().message()));
                }
                dict.push_back(std::move(s).value());
            }
        }
    }
    const auto dictAt =
        [&dict](std::uint64_t id, std::string *out) -> bool {
        if (id >= dict.size())
            return false;
        *out = dict[static_cast<std::size_t>(id)];
        return true;
    };

    auto rcols = readColumnGroup(runDir, resultColumns(), "r_",
                                 &data.recoveredDrops);
    if (!rcols.ok())
        return R(rcols.status());
    const auto &rc = rcols.value();
    const std::size_t rrows = rc.empty() ? 0 : rc[0].size();
    for (std::size_t row = 0; row < rrows; ++row) {
        ResultRow out;
        if (!dictAt(rc[0][row], &out.kernel) ||
            !dictAt(rc[1][row], &out.model) ||
            !dictAt(rc[2][row], &out.matrix)) {
            ++data.recoveredDrops;
            continue;
        }
        std::vector<std::uint64_t> slots;
        slots.reserve(rc.size() - kResultDictColumns);
        for (std::size_t c = kResultDictColumns; c < rc.size(); ++c)
            slots.push_back(rc[c][row]);
        auto res = unpackResult(slots);
        if (!res.ok()) {
            return R(corruptData("run '" + runId + "' row " +
                                 std::to_string(row) + ": " +
                                 res.status().message()));
        }
        out.result = std::move(res).value();
        data.results.push_back(std::move(out));
    }

    auto ecols = readColumnGroup(runDir, engineColumns(), "e_",
                                 &data.recoveredDrops);
    if (!ecols.ok())
        return R(ecols.status());
    const auto &ec2 = ecols.value();
    const std::size_t erows = ec2.empty() ? 0 : ec2[0].size();
    for (std::size_t row = 0; row < erows; ++row) {
        EngineRow out;
        if (!dictAt(ec2[0][row], &out.kernel) ||
            !dictAt(ec2[1][row], &out.matrix)) {
            ++data.recoveredDrops;
            continue;
        }
        std::vector<std::uint64_t> slots;
        slots.reserve(ec2.size() - kEngineDictColumns);
        for (std::size_t c = kEngineDictColumns; c < ec2.size(); ++c)
            slots.push_back(ec2[c][row]);
        unpackEngine(slots, &out.counters, &out.timed);
        data.engine.push_back(std::move(out));
    }

    if (data.recoveredDrops > 0) {
        UNISTC_WARN("warehouse run ", runId, " recovered with ",
                    data.recoveredDrops, " dropped row(s)");
    }
    return R(std::move(data));
}

} // namespace warehouse
} // namespace unistc
