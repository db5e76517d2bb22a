#include "sparse/io.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "robust/validate.hh"
#include "sparse/convert.hh"

namespace unistc
{

namespace
{

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

/** True when @p line holds nothing but whitespace. */
bool
isBlank(const std::string &line)
{
    return std::all_of(line.begin(), line.end(), [](unsigned char c) {
        return std::isspace(c);
    });
}

/**
 * Parse one whole token as a long long, rejecting trailing junk and
 * out-of-range magnitudes — `std::istream >> long` silently clamps
 * on overflow, which is exactly the bug this replaces.
 */
bool
parseInt64(const std::string &token, long long &out)
{
    if (token.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

Status
parseFailure(const std::string &label, long line_no,
             const std::string &why, const std::string &line)
{
    std::ostringstream os;
    os << label << ":" << line_no << ": " << why;
    if (!line.empty())
        os << " in '" << line << "'";
    return parseError(os.str());
}

} // namespace

Result<CsrMatrix>
tryReadMatrixMarket(std::istream &in, const std::string &label)
{
    std::string line;
    long line_no = 1;
    if (!std::getline(in, line))
        return parseError(label + ": empty Matrix Market stream");

    std::istringstream hdr(line);
    std::string banner, object, format, field, symmetry;
    hdr >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        return parseFailure(label, line_no,
                            "missing %%MatrixMarket banner", line);
    object = toLower(object);
    format = toLower(format);
    field = toLower(field);
    symmetry = toLower(symmetry);
    if (object != "matrix" || format != "coordinate") {
        return parseFailure(label, line_no,
                            "only 'matrix coordinate' files are "
                            "supported", line);
    }
    if (field != "real" && field != "integer" && field != "pattern") {
        return parseFailure(label, line_no,
                            "unsupported field type '" + field + "'",
                            "");
    }
    if (symmetry != "general" && symmetry != "symmetric") {
        return parseFailure(label, line_no,
                            "unsupported symmetry '" + symmetry + "'",
                            "");
    }

    // Skip comments, then read the size line.
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line[0] != '%')
            break;
    }
    std::istringstream size_line(line);
    std::string rows_tok, cols_tok, nnz_tok, extra_tok;
    size_line >> rows_tok >> cols_tok >> nnz_tok >> extra_tok;
    long long rows = 0, cols = 0, nnz = 0;
    if (!parseInt64(rows_tok, rows) || !parseInt64(cols_tok, cols) ||
        !parseInt64(nnz_tok, nnz) || !extra_tok.empty()) {
        return parseFailure(label, line_no,
                            "bad Matrix Market size line", line);
    }
    // Overflow-safe shape limits: dimensions must fit the int-based
    // CSR container, and nnz can never exceed rows*cols (which fits
    // in 64 bits since each factor fits in 32).
    constexpr long long kMaxDim = std::numeric_limits<int>::max();
    if (rows <= 0 || cols <= 0 || rows > kMaxDim || cols > kMaxDim) {
        return parseFailure(label, line_no,
                            "matrix dimensions out of range", line);
    }
    if (nnz < 0 || nnz > rows * cols) {
        return parseFailure(label, line_no,
                            "entry count out of range for a " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols) + " matrix",
                            line);
    }

    CooMatrix coo(static_cast<int>(rows), static_cast<int>(cols));
    const bool pattern = field == "pattern";
    const bool symmetric = symmetry == "symmetric";
    for (long long k = 0; k < nnz; ++k) {
        if (!std::getline(in, line)) {
            return parseError(label + ": truncated file: entry " +
                              std::to_string(k + 1) + " of " +
                              std::to_string(nnz) + " missing");
        }
        ++line_no;
        std::istringstream es(line);
        std::string r_tok, c_tok, v_tok, junk_tok;
        es >> r_tok >> c_tok;
        long long r = 0, c = 0;
        double v = 1.0;
        if (!parseInt64(r_tok, r) || !parseInt64(c_tok, c))
            return parseFailure(label, line_no, "bad entry", line);
        if (!pattern) {
            es >> v_tok;
            errno = 0;
            char *end = nullptr;
            v = v_tok.empty()
                ? std::nan("")
                : std::strtod(v_tok.c_str(), &end);
            if (v_tok.empty() || end == nullptr || *end != '\0') {
                return parseFailure(label, line_no,
                                    "bad or missing value", line);
            }
            if (!std::isfinite(v)) {
                return parseFailure(label, line_no,
                                    "non-finite value", line);
            }
        }
        es >> junk_tok;
        if (!junk_tok.empty()) {
            return parseFailure(label, line_no,
                                "trailing tokens after entry", line);
        }
        if (r < 1 || r > rows || c < 1 || c > cols) {
            return parseFailure(label, line_no,
                                "entry (" + std::to_string(r) + ", " +
                                    std::to_string(c) +
                                    ") out of bounds", line);
        }
        coo.add(static_cast<int>(r - 1), static_cast<int>(c - 1), v);
        if (symmetric && r != c) {
            coo.add(static_cast<int>(c - 1), static_cast<int>(r - 1),
                    v);
        }
    }

    // Anything after the last entry must be blank — content here
    // means the size line lied or the file was concatenated.
    while (std::getline(in, line)) {
        ++line_no;
        if (!isBlank(line)) {
            return parseFailure(label, line_no,
                                "trailing garbage after the last "
                                "entry", line);
        }
    }

    // The coordinate format forbids duplicate entries; summing them
    // silently (what normalize() would do) masks corrupt writers.
    {
        std::vector<std::pair<int, int>> seen;
        seen.reserve(coo.entries().size());
        for (const CooEntry &e : coo.entries())
            seen.emplace_back(e.row, e.col);
        std::sort(seen.begin(), seen.end());
        const auto dup = std::adjacent_find(seen.begin(), seen.end());
        if (dup != seen.end()) {
            return corruptData(
                label + ": duplicate entry at (" +
                std::to_string(dup->first + 1) + ", " +
                std::to_string(dup->second + 1) + ")" +
                (symmetric ? " (after symmetric expansion)" : ""));
        }
    }

    CsrMatrix csr = cooToCsr(std::move(coo));
    if (Status s = validateCsr(csr, label); !s.ok())
        return s;
    return csr;
}

Result<CsrMatrix>
tryReadMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return ioError("cannot open '" + path + "' for reading");
    return tryReadMatrixMarket(in, path);
}

CsrMatrix
readMatrixMarketFile(const std::string &path)
{
    return tryReadMatrixMarketFile(path).value();
}

} // namespace unistc
