/**
 * @file
 * Conversions between the sparse formats. All conversions are exact
 * (structure and values) and validated; the format tests check every
 * element of each result against the source matrix.
 */

#ifndef UNISTC_SPARSE_CONVERT_HH
#define UNISTC_SPARSE_CONVERT_HH

#include "sparse/bsr.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace unistc
{

/** COO (normalised internally) to CSR. */
CsrMatrix cooToCsr(CooMatrix coo);

/** Structural + numerical transpose. */
CsrMatrix transposeCsr(const CsrMatrix &csr);

/** CSR to BSR with square blocks of @p block_size. */
BsrMatrix csrToBsr(const CsrMatrix &csr, int block_size);

} // namespace unistc

#endif // UNISTC_SPARSE_CONVERT_HH
