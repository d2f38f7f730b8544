#include "math/convolution.hpp"

#include <cmath>
#include <vector>

#include "math/scratch.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

ComplexGrid multiplySpectra(const ComplexGrid& a, const ComplexGrid& b) {
  ComplexGrid out = a;
  multiplySpectraInPlace(out, b);
  return out;
}

void multiplySpectraInPlace(ComplexGrid& a, const ComplexGrid& b) {
  MOSAIC_CHECK(a.sameShape(b), "spectrum shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] *= b.data()[i];
}

ComplexGrid flippedSpectrum(const ComplexGrid& s) {
  const int rows = s.rows();
  const int cols = s.cols();
  ComplexGrid out(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const int fr = (rows - r) % rows;
    for (int c = 0; c < cols; ++c) {
      const int fc = (cols - c) % cols;
      out(r, c) = s(fr, fc);
    }
  }
  return out;
}

ComplexGrid conjugateSpectrum(const ComplexGrid& s) {
  ComplexGrid out(s.rows(), s.cols());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out.data()[i] = std::conj(s.data()[i]);
  }
  return out;
}

ComplexGrid cyclicConvolve(const ComplexGrid& a, const ComplexGrid& b) {
  MOSAIC_CHECK(a.sameShape(b), "convolution operand shape mismatch");
  const Fft2d& fft = fft2dFor(a.rows(), a.cols());
  ComplexGrid fa = a;
  scratch::ComplexLease fb(a.rows(), a.cols());
  *fb = b;
  fft.forward(fa);
  fft.forward(*fb);
  multiplySpectraInPlace(fa, *fb);
  fft.inverse(fa);
  return fa;
}

ComplexGrid directCyclicConvolve(const ComplexGrid& a, const ComplexGrid& b) {
  MOSAIC_CHECK(a.sameShape(b), "convolution operand shape mismatch");
  const int rows = a.rows();
  const int cols = a.cols();
  ComplexGrid out(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      std::complex<double> acc{0.0, 0.0};
      // tr/tc are already in [0, rows/cols), so r - tr + rows stays
      // positive and the remainder is the cyclic index.
      for (int tr = 0; tr < rows; ++tr) {
        const int br = (r - tr + rows) % rows;
        for (int tc = 0; tc < cols; ++tc) {
          const int bc = (c - tc + cols) % cols;
          acc += a(tr, tc) * b(br, bc);
        }
      }
      out(r, c) = acc;
    }
  }
  return out;
}

ComplexGrid convolveWithSpectrum(const ComplexGrid& signal,
                                 const ComplexGrid& kernelSpectrum) {
  MOSAIC_CHECK(signal.sameShape(kernelSpectrum),
               "signal/kernel spectrum shape mismatch");
  MOSAIC_SPAN("conv.spectrum");
  const Fft2d& fft = fft2dFor(signal.rows(), signal.cols());
  ComplexGrid out = signal;
  fft.forward(out);
  multiplySpectraInPlace(out, kernelSpectrum);
  fft.inverse(out);
  return out;
}

ComplexGrid convolveSpectrumWithSpectrum(const ComplexGrid& signalSpectrum,
                                         const ComplexGrid& kernelSpectrum) {
  const Fft2d& fft = fft2dFor(signalSpectrum.rows(), signalSpectrum.cols());
  ComplexGrid out = multiplySpectra(signalSpectrum, kernelSpectrum);
  fft.inverse(out);
  return out;
}

RealGrid gaussianBlur(const RealGrid& grid, double sigmaPx) {
  if (sigmaPx <= 0.0) return grid;
  MOSAIC_SPAN("conv.gaussian_blur");
  const int rows = grid.rows();
  const int cols = grid.cols();
  const Fft2d& fft = fft2dFor(rows, cols);
  scratch::ComplexLease lease(rows, cols);
  ComplexGrid& spectrum = *lease;
  fft.forwardRealInto(grid, spectrum);

  const std::vector<double> rowFactor = gaussianAxisFactors(rows, sigmaPx);
  const std::vector<double> colFactor = gaussianAxisFactors(cols, sigmaPx);
  for (int r = 0; r < rows; ++r) {
    const double fr = rowFactor[static_cast<std::size_t>(r)];
    std::complex<double>* row = spectrum.rowPtr(r);
    for (int c = 0; c < cols; ++c) {
      row[c] *= fr * colFactor[static_cast<std::size_t>(c)];
    }
  }

  RealGrid out(rows, cols);
  fft.inverseRealInto(spectrum, out);
  return out;
}

std::vector<double> gaussianAxisFactors(int n, double sigmaPx) {
  // exp(-2 pi^2 sigma^2 |f|^2) separates into per-axis factors. Signed
  // frequency convention: index k maps to k/n for k < ceil(n/2) and to
  // (k - n)/n above, so the Nyquist bin of an even size is -1/2 (for this
  // even multiplier +1/2 would give the same value, but the convention is
  // pinned here and tested so asymmetric multipliers can't regress it).
  constexpr double kTwoPiSq = 2.0 * 3.14159265358979323846 *
                              3.14159265358979323846;
  const double k = kTwoPiSq * sigmaPx * sigmaPx;
  std::vector<double> f(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double fi = (i < (n + 1) / 2 ? i : i - n) / static_cast<double>(n);
    f[static_cast<std::size_t>(i)] = std::exp(-k * fi * fi);
  }
  return f;
}

}  // namespace mosaic
