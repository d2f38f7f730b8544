#include "math/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "math/convolution.hpp"
#include "math/fft.hpp"
#include "math/scratch.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {
namespace exec {

namespace {

/// The SOCS loops written out plainly on the full grid, one kernel at a
/// time: the readable reference the cpu_band backend is tested against.
class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "cpu_scalar"; }

  void coherentIntensity(const ComplexGrid& spectrum,
                         const SpectrumView* kernels, const double* weights,
                         int count, double dose, double blurSigmaPx,
                         RealGrid& intensity) const override {
    const Fft2d& fft = fft2dFor(spectrum.rows(), spectrum.cols());
    scratch::ComplexLease fieldLease(fft.rows(), fft.cols());
    ComplexGrid& field = *fieldLease;
    intensity.fill(0.0);
    for (int k = 0; k < count; ++k) {
      const SpectrumView& spec = kernels[k];
      field.fill({0.0, 0.0});
      for (std::size_t i = 0; i < spec.count; ++i) {
        const auto flat = static_cast<std::size_t>(spec.flatIndex[i]);
        field.data()[flat] = spectrum.data()[flat] * spec.value[i];
      }
      fft.inverse(field);
      const double w = weights[k];
      for (std::size_t i = 0; i < intensity.size(); ++i) {
        intensity.data()[i] += w * std::norm(field.data()[i]);
      }
    }
    fullTransforms().add(static_cast<std::uint64_t>(count));
    if (blurSigmaPx > 0.0) {
      intensity = gaussianBlur(intensity, blurSigmaPx);
      fullTransforms().add(2);
    }
    // The dose goes on last (the blur is linear), so a dosed image is
    // bitwise dose times the dose-1 one, which printBinary relies on.
    if (dose != 1.0) {
      for (auto& v : intensity) v *= dose;
    }
  }

  void accumulateGradientChains(const ComplexGrid& maskSpectrum,
                                const SpectrumView* kernels,
                                const double* weights, int count,
                                const RealGrid& gField, double blurSigmaPx,
                                ComplexGrid& accum) const override {
    const int rows = maskSpectrum.rows();
    const int cols = maskSpectrum.cols();
    const Fft2d& fft = fft2dFor(rows, cols);
    RealGrid blurred;
    if (blurSigmaPx > 0.0) {
      blurred = gaussianBlur(gField, blurSigmaPx);
      fullTransforms().add(2);
    }
    const RealGrid& g = blurSigmaPx > 0.0 ? blurred : gField;
    scratch::ComplexLease fieldLease(rows, cols);
    ComplexGrid& field = *fieldLease;
    for (int k = 0; k < count; ++k) {
      const SpectrumView& spec = kernels[k];
      // field A = ifft(Mhat .* spec)
      field.fill({0.0, 0.0});
      for (std::size_t i = 0; i < spec.count; ++i) {
        const auto flat = static_cast<std::size_t>(spec.flatIndex[i]);
        field.data()[flat] = maskSpectrum.data()[flat] * spec.value[i];
      }
      fft.inverse(field);
      // B = G .* conj(A); accumulate w * fft(B) .* spec_flipped.
      for (std::size_t i = 0; i < field.size(); ++i) {
        field.data()[i] = g.data()[i] * std::conj(field.data()[i]);
      }
      fft.forward(field);
      const std::complex<double> scale(weights[k], 0.0);
      for (std::size_t i = 0; i < spec.count; ++i) {
        const int flat = spec.flatIndex[i];
        const int r = flat / cols;
        const int c = flat % cols;
        const auto flipped = static_cast<std::size_t>(
            ((rows - r) % rows) * cols + ((cols - c) % cols));
        accum.data()[flipped] += field.data()[flipped] * spec.value[i] * scale;
      }
    }
    fullTransforms().add(2 * static_cast<std::uint64_t>(count));
  }
};

/// Signed frequency of lattice index i on an axis of n samples.
int signedIndex(int i, int n) { return i <= n / 2 ? i : i - n; }

/// One axis of the band-limited lattice. With f_max the largest |signed
/// index| of any kernel sample on this axis, fields have band f_max and
/// intensities band 2 f_max; `coarse` is the smallest power of two above
/// 4 f_max (capped at the full size), the least that holds a band-2 f_max
/// signal and keeps the gradient chain's band-3 f_max product from
/// aliasing onto the band-f_max samples it is read at.
struct CoarseAxis {
  int full = 0;
  int coarse = 0;
  int fmax = 0;

  CoarseAxis(int n, int maxIndex) : full(n), fmax(maxIndex) {
    int nc = 2;
    while (nc <= 4 * fmax) nc *= 2;
    coarse = std::min(n, nc);
  }

  [[nodiscard]] bool reduced() const { return coarse < full; }

  /// Coarse index of full-lattice index i (a kernel sample).
  [[nodiscard]] int toCoarse(int i) const {
    return reduced() ? (signedIndex(i, full) + coarse) % coarse : i;
  }

  /// (coarse, full) index pairs of the band an intensity or dF/dI
  /// spectrum keeps: signed indices [-2 f_max, 2 f_max] on a reduced
  /// axis, the whole axis otherwise.
  [[nodiscard]] std::vector<std::pair<int, int>> band() const {
    std::vector<std::pair<int, int>> pairs;
    if (!reduced()) {
      for (int i = 0; i < full; ++i) pairs.emplace_back(i, i);
      return pairs;
    }
    for (int f = -2 * fmax; f <= 2 * fmax; ++f) {
      pairs.emplace_back((f + coarse) % coarse, (f + full) % full);
    }
    return pairs;
  }
};

/// The coarse lattice for one kernel list on a rows x cols grid.
struct CoarseLattice {
  CoarseAxis row;
  CoarseAxis col;

  [[nodiscard]] bool reduced() const { return row.reduced() || col.reduced(); }

  /// Coarse flat index of a full-lattice flat index.
  [[nodiscard]] int toCoarse(int flat) const {
    return row.toCoarse(flat / col.full) * col.coarse +
           col.toCoarse(flat % col.full);
  }

  /// Nc^2 / N^2: a coarse inverse transform of band-limited samples is the
  /// full-grid one times 1/s at the coarse points, and a coarse forward
  /// sum is s times the full-grid one inside the band.
  [[nodiscard]] double scale() const {
    return (static_cast<double>(row.coarse) / row.full) *
           (static_cast<double>(col.coarse) / col.full);
  }

  /// grid = kernel .* spectrum scattered onto the coarse lattice.
  void scatter(const ComplexGrid& spectrum, const SpectrumView& spec,
               ComplexGrid& grid) const {
    grid.fill({0.0, 0.0});
    for (std::size_t i = 0; i < spec.count; ++i) {
      const int flat = spec.flatIndex[i];
      grid.data()[static_cast<std::size_t>(toCoarse(flat))] =
          spectrum.data()[static_cast<std::size_t>(flat)] * spec.value[i];
    }
  }
};

/// The lattice of a kernel list: f_max per axis from the samples' signed
/// indices.
CoarseLattice coarseLattice(int rows, int cols, const SpectrumView* kernels,
                            int count) {
  int rowMax = 0;
  int colMax = 0;
  for (int k = 0; k < count; ++k) {
    for (std::size_t i = 0; i < kernels[k].count; ++i) {
      const int flat = kernels[k].flatIndex[i];
      rowMax = std::max(rowMax, std::abs(signedIndex(flat / cols, rows)));
      colMax = std::max(colMax, std::abs(signedIndex(flat % cols, cols)));
    }
  }
  return {CoarseAxis(rows, rowMax), CoarseAxis(cols, colMax)};
}

/// Per-band-pair multiplier: the Gaussian blur factors of the full-grid
/// frequencies the pairs name (all ones without blur).
std::vector<double> bandFactors(const std::vector<std::pair<int, int>>& band,
                                int n, double blurSigmaPx) {
  std::vector<double> factors(band.size(), 1.0);
  if (blurSigmaPx > 0.0) {
    const std::vector<double> axis = gaussianAxisFactors(n, blurSigmaPx);
    for (std::size_t i = 0; i < band.size(); ++i) {
      factors[i] = axis[static_cast<std::size_t>(band[i].second)];
    }
  }
  return factors;
}

/// The SOCS primitives on the band-limited coarse lattice (backend.hpp;
/// derivation in docs/ALGORITHMS.md).
class BandBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "cpu_band"; }

  void coherentIntensity(const ComplexGrid& spectrum,
                         const SpectrumView* kernels, const double* weights,
                         int count, double dose, double blurSigmaPx,
                         RealGrid& intensity) const override {
    const int rows = spectrum.rows();
    const int cols = spectrum.cols();
    const CoarseLattice lattice = coarseLattice(rows, cols, kernels, count);
    if (!lattice.reduced()) {
      scalarBackend().coherentIntensity(spectrum, kernels, weights, count,
                                        dose, blurSigmaPx, intensity);
      return;
    }
    MOSAIC_SPAN("backend.aerial_band");
    const int cr = lattice.row.coarse;
    const int cc = lattice.col.coarse;
    const Fft2d& coarse = fft2dFor(cr, cc);

    // Coarse intensity sum_k w_k |e_k|^2 with e_k the coarse inverse of
    // the scattered product (the full-grid field is s e_k there).
    scratch::ComplexLease fieldLease(cr, cc);
    scratch::RealLease sumLease(cr, cc);
    ComplexGrid& field = *fieldLease;
    RealGrid& sum = *sumLease;
    sum.fill(0.0);
    for (int k = 0; k < count; ++k) {
      lattice.scatter(spectrum, kernels[k], field);
      coarse.inverse(field);
      const double w = weights[k];
      for (std::size_t i = 0; i < sum.size(); ++i) {
        sum.data()[i] += w * std::norm(field.data()[i]);
      }
    }

    // Full spectrum of the intensity: the coarse forward of s^2 * sum is
    // s times the full-grid one, so the band entries are s times the
    // coarse spectrum of `sum` (times the blur multiplier). Only the
    // columns [0, cols/2] inverseRealInto reads are written.
    scratch::ComplexLease coarseSpecLease(cr, cc);
    ComplexGrid& coarseSpec = *coarseSpecLease;
    coarse.forwardRealInto(sum, coarseSpec);
    coarseTransforms().add(static_cast<std::uint64_t>(count) + 1);

    const auto rowBand = lattice.row.band();
    const auto colBand = lattice.col.band();
    const auto rowFactor = bandFactors(rowBand, rows, blurSigmaPx);
    const auto colFactor = bandFactors(colBand, cols, blurSigmaPx);
    const double scale = lattice.scale();
    const int half = cols / 2;
    scratch::ComplexLease fullLease(rows, cols);
    ComplexGrid& full = *fullLease;
    for (int r = 0; r < rows; ++r) {
      std::fill(full.rowPtr(r), full.rowPtr(r) + half + 1,
                std::complex<double>{0.0, 0.0});
    }
    for (std::size_t i = 0; i < rowBand.size(); ++i) {
      const std::complex<double>* src = coarseSpec.rowPtr(rowBand[i].first);
      std::complex<double>* dst = full.rowPtr(rowBand[i].second);
      const double rowScale = scale * rowFactor[i];
      for (std::size_t j = 0; j < colBand.size(); ++j) {
        if (colBand[j].second > half) continue;
        dst[colBand[j].second] =
            src[colBand[j].first] * (rowScale * colFactor[j]);
      }
    }
    fft2dFor(rows, cols).inverseRealInto(full, intensity);
    fullTransforms().add(1);
    // The dose goes on last, as in cpu_scalar.
    if (dose != 1.0) {
      for (auto& v : intensity) v *= dose;
    }
  }

  void accumulateGradientChains(const ComplexGrid& maskSpectrum,
                                const SpectrumView* kernels,
                                const double* weights, int count,
                                const RealGrid& gField, double blurSigmaPx,
                                ComplexGrid& accum) const override {
    const int rows = maskSpectrum.rows();
    const int cols = maskSpectrum.cols();
    const CoarseLattice lattice = coarseLattice(rows, cols, kernels, count);
    if (!lattice.reduced()) {
      scalarBackend().accumulateGradientChains(maskSpectrum, kernels,
                                               weights, count, gField,
                                               blurSigmaPx, accum);
      return;
    }
    MOSAIC_SPAN("backend.gradient_band");
    const int cr = lattice.row.coarse;
    const int cc = lattice.col.coarse;
    const Fft2d& coarse = fft2dFor(cr, cc);

    // dF/dI truncated to band 2 f_max (blurred there): only that band of
    // G reaches the band-f_max samples the chain is read at. Its coarse
    // inverse is G / s at the coarse points.
    scratch::ComplexLease gHatLease(rows, cols);
    ComplexGrid& gHat = *gHatLease;
    fft2dFor(rows, cols).forwardRealInto(gField, gHat);
    fullTransforms().add(1);

    const auto rowBand = lattice.row.band();
    const auto colBand = lattice.col.band();
    const auto rowFactor = bandFactors(rowBand, rows, blurSigmaPx);
    const auto colFactor = bandFactors(colBand, cols, blurSigmaPx);
    scratch::ComplexLease gBandLease(cr, cc);
    ComplexGrid& gBand = *gBandLease;
    gBand.fill({0.0, 0.0});
    for (std::size_t i = 0; i < rowBand.size(); ++i) {
      const std::complex<double>* src = gHat.rowPtr(rowBand[i].second);
      std::complex<double>* dst = gBand.rowPtr(rowBand[i].first);
      for (std::size_t j = 0; j < colBand.size(); ++j) {
        dst[colBand[j].first] =
            src[colBand[j].second] * (rowFactor[i] * colFactor[j]);
      }
    }
    scratch::RealLease gCoarseLease(cr, cc);
    RealGrid& gCoarse = *gCoarseLease;
    coarse.inverseRealInto(gBand, gCoarse);

    // Per kernel: A = coarse inverse (the full field is s A), the product
    // with G, the coarse forward, and the flipped samples scaled by
    // w * s (s^2 from the two fields, 1/s from the forward sum).
    scratch::ComplexLease fieldLease(cr, cc);
    ComplexGrid& field = *fieldLease;
    const double s = lattice.scale();
    for (int k = 0; k < count; ++k) {
      const SpectrumView& spec = kernels[k];
      lattice.scatter(maskSpectrum, spec, field);
      coarse.inverse(field);
      for (std::size_t i = 0; i < field.size(); ++i) {
        field.data()[i] = gCoarse.data()[i] * std::conj(field.data()[i]);
      }
      coarse.forward(field);
      const std::complex<double> scale(weights[k] * s, 0.0);
      for (std::size_t i = 0; i < spec.count; ++i) {
        const int flat = spec.flatIndex[i];
        const int r = flat / cols;
        const int c = flat % cols;
        const int flipped = ((rows - r) % rows) * cols + ((cols - c) % cols);
        accum.data()[static_cast<std::size_t>(flipped)] +=
            field.data()[static_cast<std::size_t>(lattice.toCoarse(flipped))] *
            spec.value[i] * scale;
      }
    }
    coarseTransforms().add(2 * static_cast<std::uint64_t>(count) + 1);
  }
};

std::atomic<const Backend*>& currentSlot() {
  static std::atomic<const Backend*> slot{&bandBackend()};
  return slot;
}

}  // namespace

const Backend& scalarBackend() {
  static ScalarBackend backend;
  return backend;
}

const Backend& bandBackend() {
  static BandBackend backend;
  return backend;
}

bool cpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

const Backend* findBackend(std::string_view name) {
  if (name == "auto") return &bandBackend();
  if (name == "cpu_scalar") return &scalarBackend();
  if (name == "cpu_band") return &bandBackend();
  return nullptr;
}

const Backend& currentBackend() {
  return *currentSlot().load(std::memory_order_acquire);
}

void setCurrentBackend(const Backend& backend) {
  currentSlot().store(&backend, std::memory_order_release);
}

telemetry::Counter& fullTransforms() {
  static telemetry::Counter& counter =
      telemetry::metrics().counter("litho.fft.full");
  return counter;
}

telemetry::Counter& coarseTransforms() {
  static telemetry::Counter& counter =
      telemetry::metrics().counter("litho.fft.coarse");
  return counter;
}

}  // namespace exec
}  // namespace mosaic
