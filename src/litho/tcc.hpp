#pragma once
/// \file tcc.hpp
/// Hopkins Transmission Cross Coefficient (TCC) construction and its
/// eigendecomposition into SOCS kernels (paper Sec. 2, Eq. 1-2). This is
/// the substitute for the contest's pre-supplied kernel files: instead of
/// reading opaque kernel blobs we derive them from first principles
/// (annular source, circular pupil, defocus aberration).

#include <vector>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"

namespace mosaic {

/// A frequency lattice site inside the pupil support.
struct PupilSample {
  int row = 0;   ///< FFT row index (wrapped)
  int col = 0;   ///< FFT col index (wrapped)
  double fx = 0; ///< signed spatial frequency, cycles/nm
  double fy = 0;
};

/// Enumerate the FFT lattice sites whose spatial frequency lies within the
/// pupil cutoff NA/lambda.
std::vector<PupilSample> pupilLattice(const OpticsConfig& optics);

/// Position of the DC site (row 0, col 0) in `lattice`, or -1 when the
/// lattice does not hold it. The eigensolver anchors each kernel's phase
/// there.
int dcLatticeIndex(const std::vector<PupilSample>& lattice);

/// Build the TCC matrix restricted to the pupil lattice:
/// T(p, q) = (1/S) * sum_s J(s) P(s + f_p) conj(P(s + f_q)),
/// with J a uniform annular source sampled `sourceOversample` times finer
/// than the pupil lattice. Row-major n x n Hermitian, n = lattice size.
std::vector<std::complex<double>> buildTcc(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice);

/// Decompose the TCC into the top `optics.kernelCount` SOCS kernels
/// (widened to the end of a degenerate eigenvalue cluster) and normalize so
/// the open-frame (mask == 1 everywhere) intensity is exactly 1.0. Also
/// fills the combined kernel (combinedKernel).
KernelSet computeKernelSet(const OpticsConfig& optics, double focusNm);

/// The combined kernel of Eq. 21, sum_k c_k w_k h_k with unit coefficients
/// c_k: 1 outside a degenerate eigenvalue cluster, -(-i)^m for the m-th
/// vector inside one (docs/ALGORITHMS.md), rescaled so its open-frame field
/// has unit magnitude. `set` must hold whole eigenspaces in the eigensolver's
/// canonical basis; then the result depends on the TCC alone.
SparseSpectrum combinedKernel(const KernelSet& set);

}  // namespace mosaic
