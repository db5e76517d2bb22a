/**
 * @file
 * Structural validators for every sparse container that crosses an
 * untrusted boundary (file load, format conversion, fault-injection
 * tests). Unlike the formats' own validate() members — which assert
 * and are meant for catching *simulator* bugs — these return a typed
 * Status naming the matrix and the first violated invariant, so a
 * loader can reject one corrupt input and keep the sweep alive.
 *
 * Checked invariants:
 *  - CSR: rowPtr is monotone with rowPtr[0] == 0 and
 *    rowPtr[rows] == nnz; column indices strictly ascending per row
 *    and in [0, cols); sizes consistent; all values finite.
 *  - BBC: outer CSR-over-blocks invariants; nonzero Lv1/Lv2 bitmaps;
 *    tileBase/valPtrLv1/valPtrLv2 prefix sums consistent with bitmap
 *    popcounts; total popcount equals the stored value count; all
 *    values finite.
 */

#ifndef UNISTC_ROBUST_VALIDATE_HH
#define UNISTC_ROBUST_VALIDATE_HH

#include <string>

#include "robust/status.hh"

namespace unistc
{

class BbcMatrix;
class CsrMatrix;

/**
 * Check every CSR invariant; @p label names the matrix in the error
 * message ("<csr>" when empty).
 */
Status validateCsr(const CsrMatrix &m, const std::string &label = "");

/** Check every BBC invariant, including bitmap/popcount agreement. */
Status validateBbc(const BbcMatrix &m, const std::string &label = "");

} // namespace unistc

#endif // UNISTC_ROBUST_VALIDATE_HH
