#pragma once
/// \file convolution.hpp
/// Cyclic (circular) convolution helpers on top of the FFT, plus an O(N^4)
/// direct reference used by the tests. The lithography engine keeps kernels
/// as full-grid spectra, so the hot path is "multiply spectra, inverse FFT".

#include <vector>

#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {

/// Element-wise product c = a .* b (shapes must match).
ComplexGrid multiplySpectra(const ComplexGrid& a, const ComplexGrid& b);

/// In-place element-wise product a .*= b.
void multiplySpectraInPlace(ComplexGrid& a, const ComplexGrid& b);

/// Spectrum of the spatially flipped signal h(-x,-y): S'(i,j) =
/// S((R-i)%R, (C-j)%C). Used for correlation terms in the ILT gradient.
ComplexGrid flippedSpectrum(const ComplexGrid& s);

/// Element-wise complex conjugate.
ComplexGrid conjugateSpectrum(const ComplexGrid& s);

/// Cyclic convolution via FFT: (a (*) b)(x) = sum_t a(t) b(x - t), indices
/// wrapping modulo the grid shape.
ComplexGrid cyclicConvolve(const ComplexGrid& a, const ComplexGrid& b);

/// Direct O(N^4) cyclic convolution -- reference implementation for tests.
ComplexGrid directCyclicConvolve(const ComplexGrid& a, const ComplexGrid& b);

/// Convolve a signal given in the spatial domain with a kernel given as a
/// full-grid spectrum: returns ifft(fft(signal) .* kernelSpectrum).
ComplexGrid convolveWithSpectrum(const ComplexGrid& signal,
                                 const ComplexGrid& kernelSpectrum);

/// Same but the signal is already in the frequency domain.
ComplexGrid convolveSpectrumWithSpectrum(const ComplexGrid& signalSpectrum,
                                         const ComplexGrid& kernelSpectrum);

/// Cyclic Gaussian blur of a real grid with standard deviation `sigma`
/// (in pixels), computed spectrally: multiply by exp(-2 pi^2 sigma^2 |f|^2)
/// using the signed frequency convention (the Nyquist bin of an even size
/// is -1/2). Runs on the real-input/real-output FFT fast path with pooled
/// scratch. sigma <= 0 returns the input unchanged. The operator is
/// self-adjoint, which the ILT gradient chain relies on.
RealGrid gaussianBlur(const RealGrid& grid, double sigmaPx);

/// The per-axis factors of gaussianBlur's multiplier for an axis of `n`
/// samples: entry i is exp(-2 pi^2 sigma^2 f_i^2) with f_i the signed
/// frequency of index i. The 2-D multiplier is rowFactor[r] * colFactor[c].
std::vector<double> gaussianAxisFactors(int n, double sigmaPx);

}  // namespace mosaic
