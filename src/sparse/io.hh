/**
 * @file
 * Matrix Market (.mtx) reader. Supports the coordinate format
 * with real/integer/pattern fields and general/symmetric symmetry —
 * enough to load any SuiteSparse matrix a user drops into the corpus.
 *
 * The parser is defensive (docs/ROBUSTNESS.md): overflow-safe
 * dimension parsing, per-entry bounds and finiteness checks,
 * duplicate-entry rejection, truncation and trailing-garbage
 * detection — every failure is a typed error naming the offending
 * line. The try* functions return Result/Status and never
 * terminate; readMatrixMarketFile raise()s (throw or exit, per
 * FatalBehavior) on failure.
 */

#ifndef UNISTC_SPARSE_IO_HH
#define UNISTC_SPARSE_IO_HH

#include <iosfwd>
#include <string>

#include "robust/status.hh"
#include "sparse/csr.hh"

namespace unistc
{

/**
 * Parse a Matrix Market stream into CSR; @p label names the source
 * in error messages. Returns a typed error on malformed input.
 */
Result<CsrMatrix> tryReadMatrixMarket(std::istream &in,
                                      const std::string &label =
                                          "<stream>");

/** Load a .mtx file with full input validation. */
Result<CsrMatrix> tryReadMatrixMarketFile(const std::string &path);

/** Load a .mtx file; raise()s on error. */
CsrMatrix readMatrixMarketFile(const std::string &path);

} // namespace unistc

#endif // UNISTC_SPARSE_IO_HH
