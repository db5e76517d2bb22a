/**
 * @file
 * Synthetic sparse-matrix generators covering the structural families
 * the SuiteSparse collection exhibits (DESIGN.md substitution table):
 * uniform random, banded/FEM, 2D stencils, power-law graphs, blocky
 * FEM clusters, diagonal-dominant and long-row patterns. All
 * generators are deterministic in their seed.
 */

#ifndef UNISTC_CORPUS_GENERATORS_HH
#define UNISTC_CORPUS_GENERATORS_HH

#include <cstdint>
#include <string>

#include "sparse/csr.hh"

namespace unistc
{

/**
 * Build a matrix from a textual generator spec, the `--gen` syntax of
 * simulate_cli:
 *
 *   banded:n,half_bandwidth,fill | random:n,density |
 *   powerlaw:n,avg_degree,alpha  | stencil:grid
 *
 * Omitted numeric fields take family defaults. Malformed specs
 * (unknown family, non-numeric or empty fields, trailing commas) and
 * out-of-range fields (sizes that are not integers in [1, INT_MAX],
 * a negative half_bandwidth, fill or density outside [0, 1],
 * avg_degree <= 0, alpha <= 1, grid^2 > INT_MAX) report the spec and
 * the field via fatal() instead of throwing or asserting.
 */
CsrMatrix generateFromSpec(const std::string &spec);

/** i.i.d. uniform random pattern with the given element density. */
CsrMatrix genRandomUniform(int rows, int cols, double density,
                           std::uint64_t seed);

/**
 * Banded matrix: entries within @p half_bandwidth of the diagonal are
 * present with probability @p fill (FEM-style stencils).
 */
CsrMatrix genBanded(int n, int half_bandwidth, double fill,
                    std::uint64_t seed);

/** 2D Poisson stencil on a grid x grid mesh (5- or 9-point). */
CsrMatrix genStencil2d(int grid, bool nine_point = false);

/**
 * Power-law (scale-free) graph adjacency: out-degrees follow a
 * Zipf-like law with exponent @p alpha and mean ~@p avg_degree.
 */
CsrMatrix genPowerLaw(int n, double avg_degree, double alpha,
                      std::uint64_t seed);

/**
 * Blocky FEM-like pattern: dense @p block x @p block clusters placed
 * near the diagonal; a fraction @p block_density of candidate cluster
 * slots is populated, each filled to @p fill.
 */
CsrMatrix genBlockDense(int n, int block, double block_density,
                        double fill, std::uint64_t seed);

/** A few full (sub)diagonals at random offsets. */
CsrMatrix genDiagonalHeavy(int n, int num_diags, std::uint64_t seed);

/**
 * Shifted graph Laplacian L = D - A + 0.01 I of a symmetrised
 * power-law graph — an irregular, diagonally dominant operator for
 * unstructured AMG runs (row degrees vary by orders of magnitude).
 */
CsrMatrix genGraphLaplacian(int n, double avg_degree, double alpha,
                            std::uint64_t seed);

/**
 * Mostly-sparse background plus @p num_long_rows nearly dense rows
 * (the pattern that stresses fixed-K task shapes, e.g. crankseg_2).
 */
CsrMatrix genLongRows(int n, int num_long_rows, double long_density,
                      double bg_density, std::uint64_t seed);

/**
 * FEM band plus long rows: a banded base (half-bandwidth, fill) with
 * @p num_long_rows additional rows densified to @p long_density over
 * a contiguous window of @p long_span x n columns — the
 * crankseg_2-style constraint-coupling pattern (long rows stay
 * block-dense rather than scattering into singleton blocks).
 */
CsrMatrix genFemLongRows(int n, int half_bandwidth, double fill,
                         int num_long_rows, double long_span,
                         double long_density, std::uint64_t seed);

/**
 * Arrow matrix: the first @p head rows AND columns are dense with
 * probability @p head_fill, plus a filled diagonal band of half-width
 * @p half_bandwidth. Clusters intermediate products into dense
 * blocks — the structure behind gupta3's extreme #inter-prod/blk.
 */
CsrMatrix genArrow(int n, int head, double head_fill,
                   int half_bandwidth, double band_fill,
                   std::uint64_t seed);

/**
 * R-MAT / Kronecker-style graph: edges recursively biased into one
 * quadrant with probabilities (a, b, c, d), a >= b, c >= d,
 * a+b+c+d = 1. Produces the heavy-tailed, community-clustered
 * patterns of social/web graphs (Graph500 uses a=0.57, b=c=0.19).
 */
CsrMatrix genRmat(int scale, int edges_per_vertex, double a, double b,
                  double c, std::uint64_t seed);

/** Lower-triangular part (including the diagonal) of @p m. */
CsrMatrix lowerTriangular(const CsrMatrix &m);

/** Structural+numerical symmetrisation: (M + M^T) / 2. */
CsrMatrix symmetrize(const CsrMatrix &m);

/** Random values in [0.1, 1.0) written onto an existing structure. */
void randomizeValues(CsrMatrix &m, std::uint64_t seed);

} // namespace unistc

#endif // UNISTC_CORPUS_GENERATORS_HH
