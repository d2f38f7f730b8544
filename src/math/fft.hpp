#pragma once
/// \file fft.hpp
/// From-scratch FFT engine. Provides cached 1-D radix-2 plans and a 2-D
/// transform over ComplexGrid, plus half-spectrum real-input/real-output
/// fast paths. This is the computational core of the lithography
/// simulator: every aerial image and every gradient term is a handful of
/// these transforms (paper Sec. 3.5).
///
/// Engine layout (docs/performance.md):
///  - Row transforms run the scalar 1-D plan on contiguous rows.
///  - Column transforms are "row-vector butterflies": the radix-2
///    algorithm over row indices where each butterfly combines two whole
///    rows element-wise. Memory access stays contiguous and the inner
///    loops autovectorize; there is no per-column gather/scatter and no
///    per-call scratch.
///  - Real input (masks, gradients) packs two real rows into one complex
///    transform and only runs the column pass on the non-redundant half
///    of the spectrum; the other half is reconstructed from Hermitian
///    symmetry. Same trick in reverse for real output (gaussianBlur).
///
/// tests/test_fft_engine.cpp checks every path against an O(n^2) DFT.

#include <complex>
#include <memory>
#include <vector>

#include "math/grid.hpp"

namespace mosaic {

/// Iterative radix-2 decimation-in-time FFT plan for a fixed power-of-two
/// size. Precomputes the bit-reversal permutation and twiddle factors so
/// repeated transforms only pay the butterfly cost.
class FftPlan {
 public:
  /// \param n transform length; must be a power of two >= 1.
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2 pi i jk / n).
  void forward(std::complex<double>* data) const;

  /// In-place inverse DFT including the 1/n normalization.
  void inverse(std::complex<double>* data) const;

  [[nodiscard]] static bool isPowerOfTwo(std::size_t n) {
    return n != 0 && (n & (n - 1)) == 0;
  }

  /// Bit-reversal permutation (index i swaps with bitReversal()[i]).
  /// Exposed so Fft2d can permute whole rows for its column pass.
  [[nodiscard]] const std::vector<std::size_t>& bitReversal() const {
    return bitrev_;
  }

  /// Forward twiddles for the stage with half-length h: factor j lives at
  /// stageTwiddles(h)[j], j in [0, h). The inverse uses the conjugates.
  [[nodiscard]] const std::complex<double>* stageTwiddles(
      std::size_t h) const {
    return &twiddle_[h];
  }

 private:
  void transform(std::complex<double>* data, bool invert) const;

  std::size_t n_;
  int logN_;
  std::vector<std::size_t> bitrev_;
  /// Twiddles for the forward transform, stage-packed: the factors for the
  /// stage with half-length h live at [h, 2h).
  std::vector<std::complex<double>> twiddle_;
};

/// 2-D FFT over a ComplexGrid (rows then columns). Both dimensions must be
/// powers of two. Plans are cached per instance, so reuse one Fft2d per
/// grid shape in hot loops (or go through fft2dFor). All member functions
/// are const and keep no shared mutable scratch, so one instance is safe
/// to use concurrently from the tile scheduler's worker threads.
class Fft2d {
 public:
  Fft2d(int rows, int cols);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  /// In-place forward 2-D DFT.
  void forward(ComplexGrid& grid) const;
  /// In-place inverse 2-D DFT (normalized by 1/(rows*cols)).
  void inverse(ComplexGrid& grid) const;

  /// Forward transform of a real grid, exploiting Hermitian symmetry
  /// (about half the work of the complex path). Returns the full
  /// rows x cols spectrum.
  [[nodiscard]] ComplexGrid forwardReal(const RealGrid& grid) const;

  /// Same, writing into a caller-provided (e.g. pooled) grid.
  void forwardRealInto(const RealGrid& grid, ComplexGrid& out) const;

  /// Inverse transform of a Hermitian spectrum straight to its real
  /// result, exploiting symmetry like forwardRealInto. Only columns
  /// [0, cols/2] of `spectrum` are read; the grid is clobbered (it is
  /// used as workspace for the column pass). The imaginary part of the
  /// mathematical result is discarded, so the caller is responsible for
  /// `spectrum` actually being (half of) a Hermitian spectrum.
  void inverseRealInto(ComplexGrid& spectrum, RealGrid& out) const;

  /// out = Re(ifft(spectrum)) for any spectrum, Hermitian or not: folds
  /// the spectrum onto its Hermitian part (X(k) + conj(X(-k))) / 2 in
  /// place over columns [0, cols/2], then runs inverseRealInto. The grid
  /// is clobbered. The ILT gradient, 2 Re(ifft(accumulator)), uses it.
  void inverseRealPartInto(ComplexGrid& spectrum, RealGrid& out) const;

 private:
  void transformRows(ComplexGrid& grid, bool invert) const;
  /// Row-vector-butterfly column pass over columns [0, colLimit).
  void transformCols(ComplexGrid& grid, bool invert, int colLimit) const;

  int rows_;
  int cols_;
  FftPlan rowPlan_;
  FftPlan colPlan_;
};

/// Shared plan cache: returns an Fft2d for (rows, cols), constructing it on
/// first use. Lookups of already-constructed plans are lock-free (an
/// atomic walk of an append-only list), so concurrent tile workers never
/// contend here; only first-time construction of a new shape takes a
/// mutex. The returned reference stays valid for the process lifetime.
const Fft2d& fft2dFor(int rows, int cols);

}  // namespace mosaic
