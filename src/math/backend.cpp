#include "math/backend.hpp"

#include <atomic>

#include "math/scratch.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {
namespace exec {

namespace {

/// The SOCS loops written out plainly, one kernel at a time: the readable
/// reference the cpu_simd backend is tested against.
class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "cpu_scalar"; }

  void accumulateCoherentIntensity(const Fft2d& fft,
                                   const ComplexGrid& spectrum,
                                   const SpectrumView* kernels,
                                   const double* weights, int count,
                                   double dose,
                                   RealGrid& intensity) const override {
    // multiplyInto overwrites every element, so the (unzeroed) pooled
    // grid is safe here.
    scratch::ComplexLease fieldLease(fft.rows(), fft.cols());
    ComplexGrid& field = *fieldLease;
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
    if (dose != 1.0) {
      for (auto& v : intensity) v *= dose;
    }
  }

  void accumulateGradientChains(const Fft2d& fft,
                                const ComplexGrid& maskSpectrum,
                                const SpectrumView* kernels,
                                const double* weights, int count,
                                const RealGrid& gField,
                                ComplexGrid& accum) const override {
    const int rows = fft.rows();
    const int cols = fft.cols();
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
        field.data()[i] = gField.data()[i] * std::conj(field.data()[i]);
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
  }
};

std::atomic<const Backend*>& currentSlot() {
  static std::atomic<const Backend*> slot{&simdBackend()};
  return slot;
}

}  // namespace

const Backend& scalarBackend() {
  static ScalarBackend backend;
  return backend;
}

const Backend* findBackend(std::string_view name) {
  if (name == "auto") return &simdBackend();
  if (name == "cpu_scalar") return &scalarBackend();
  if (name == "cpu_simd") return &simdBackend();
  return nullptr;
}

const Backend& currentBackend() {
  return *currentSlot().load(std::memory_order_acquire);
}

void setCurrentBackend(const Backend& backend) {
  currentSlot().store(&backend, std::memory_order_release);
}

}  // namespace exec
}  // namespace mosaic
