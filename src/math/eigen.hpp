#pragma once
/// \file eigen.hpp
/// Leading eigenpairs of a dense Hermitian matrix. Used to decompose the
/// Hopkins TCC operator into SOCS kernels (paper Eq. 1-2): the kernels h_k
/// are the top eigenvectors and the weights w_k the eigenvalues.

#include <complex>
#include <vector>

#include "support/error.hpp"

namespace mosaic {

/// The k algebraically largest eigenpairs of a Hermitian matrix H, so that
/// H v_j = lambda_j v_j with lambda_0 >= lambda_1 >= ... and the v_j
/// orthonormal.
struct HermitianEigenResult {
  std::vector<double> eigenvalues;                              ///< [k]
  std::vector<std::vector<std::complex<double>>> eigenvectors;  ///< [k][i]
};

/// Top-k Hermitian eigensolver, one path for every matrix size:
///   1. Householder reduction of H to a Hermitian tridiagonal matrix
///      (reflectors kept, only the trailing block updated);
///   2. a diagonal unitary that makes the off-diagonals real;
///   3. every eigenvalue by implicit QL without vectors;
///   4. the top k tridiagonal eigenvectors by inverse iteration from
///      fixed-seed starts, Gram-Schmidt inside each eigenvalue cluster;
///   5. back-transformation of just those k vectors, O(k n^2);
///   6. canonicalEigenbasis on every eigenspace.
/// Eigenvalues within 1e-8 |lambda_0| of each other form one eigenspace
/// (clusterSafeCount); more than k pairs come back when the k-th eigenvalue
/// is degenerate with the next, so no eigenspace is cut. Results are
/// bit-identical run to run; a real symmetric H gives real eigenvectors.
/// \param h row-major n x n Hermitian matrix (validated to 1e-9).
/// \param k number of leading eigenpairs wanted (1 <= k <= n).
HermitianEigenResult leadingEigenpairsHermitian(
    const std::vector<std::complex<double>>& h, int n, int k,
    int phaseAnchor = -1);

/// Replaces `basis` (orthonormal vectors spanning one eigenspace) by a
/// basis that depends only on the span: pivoted Gram-Schmidt on the
/// columns of the projector P = sum_j v_j v_j^H. Each step takes sample
/// `phaseAnchor` while the part of its column not yet covered has squared
/// norm above 1e-16, otherwise the sample whose column has the largest
/// uncovered part (lowest index among those within 1e-9, relative, of it,
/// so round-off cannot pick between symmetric samples). The new vector is
/// that column orthonormalized against the earlier ones, with its pivot
/// sample real and positive. For one vector this is the phase rule: the
/// anchor sample real and positive when its magnitude exceeds 1e-8,
/// otherwise the first largest-magnitude sample.
void canonicalEigenbasis(std::vector<std::vector<std::complex<double>>>& basis,
                         int phaseAnchor = -1);

/// Widen a truncation `count` of the descending spectrum `values` so it
/// never ends inside an eigenvalue cluster: while the last kept value and
/// the first dropped one differ by at most 1e-8 * |values[0]|, one more is
/// kept. Capped at values.size(). Truncating inside a cluster would make
/// the result depend on the solver's arbitrary basis of that eigenspace.
int clusterSafeCount(const std::vector<double>& values, int count);

/// Worst eigenpair residual max_j ||H v_j - lambda_j v_j||_inf of `result`
/// against the row-major n x n matrix `h`; O(k n^2).
double maxEigenResidual(const std::vector<std::complex<double>>& h, int n,
                        const HermitianEigenResult& result);

}  // namespace mosaic
