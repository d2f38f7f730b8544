#pragma once
/// \file backend.hpp
/// Execution-backend layer for the SOCS hot path (docs/performance.md).
///
/// One ILT iteration spends nearly all of its time in two math-level
/// primitives: the aerial-intensity sum over the SOCS kernel set
/// (per-kernel sparse product + inverse FFT + weighted |.|^2 accumulate,
/// Eq. 2) and the gradient convolution chains (inverse FFT, element-wise
/// product, forward FFT, flipped sparse accumulate, Eq. 17). A Backend
/// implements exactly those two primitives, so the simulator and the
/// objective stay algorithm-shaped while the execution strategy is
/// swappable.
///
/// Implementations:
///  - `cpu_band`: the band-limited path and the library default (what
///    "auto" resolves to, what the apps and every test run unless they
///    pick a backend themselves). Every kernel spectrum lies inside the
///    pupil disc, so with f_max the largest |signed lattice index| of the
///    kernel samples a field M (x) h_k has band f_max and the intensity
///    band 2 f_max. The per-kernel transforms run on the coarse lattice
///    Nc = min(N, smallest power of two > 4 f_max), which holds both
///    without aliasing, and only one full-grid transform per primitive
///    call remains (docs/ALGORITHMS.md, "Band-limited SOCS"). When
///    Nc == N on both axes it runs the cpu_scalar loops.
///  - `cpu_scalar`: the plain full-grid per-kernel loops, kept as the
///    readable reference that tests/test_backend.cpp compares cpu_band
///    against (agreement ~1e-14, tested at 1e-10).
///
/// Work counters (docs/observability.md): every 2-D transform on the SOCS
/// path adds to `litho.fft.full` (simulator grid) or `litho.fft.coarse`
/// (the band-limited lattice).
///
/// Thread-safety: backends are immutable singletons; every method is
/// const and uses only per-thread scratch. The process-wide selection
/// (currentBackend/setCurrentBackend) is an atomic pointer — set it once
/// at startup, not concurrently with running work.

#include <complex>
#include <string_view>

#include "math/grid.hpp"

namespace mosaic {

namespace telemetry {
class Counter;
}

namespace exec {

/// Non-owning view of a sparse spectrum: `count` nonzero lattice samples
/// of a rows x cols frequency grid, addressed by flat index r * cols + c.
/// litho's SparseSpectrum converts to this without copying.
struct SpectrumView {
  const int* flatIndex = nullptr;
  const std::complex<double>* value = nullptr;
  std::size_t count = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identifier used by findBackend and the bench/JSON output.
  [[nodiscard]] virtual const char* name() const = 0;

  /// intensity =
  ///     dose * blur(sum_k weights[k] * |ifft(kernels[k] .* spectrum)|^2)
  ///
  /// `intensity` (same shape as `spectrum`) is overwritten. blur is
  /// gaussianBlur with `blurSigmaPx` (the resist diffusion; <= 0 = none).
  /// Both apply exactly once, the dose last: a dosed image is bitwise
  /// dose times the dose-1 image, so a corner may threshold dose * I.
  virtual void coherentIntensity(const ComplexGrid& spectrum,
                                 const SpectrumView* kernels,
                                 const double* weights, int count,
                                 double dose, double blurSigmaPx,
                                 RealGrid& intensity) const = 0;

  /// accum += sum_k weights[k] * flip(kernels[k]) .*
  ///          fft(blur(gField) .* conj(ifft(kernels[k] .* maskSpectrum)))
  ///
  /// The gradient convolution chain of Eq. 17, summed over a kernel set
  /// into the spectral accumulator (the caller inverse-transforms `accum`
  /// once per evaluation, after every focus has added its chains).
  /// flip(s) moves the sample at (r, c) to ((R-r)%R, (C-c)%C) with the
  /// value unchanged. blur is as in coherentIntensity; it is self-adjoint,
  /// so blurring dF/dI here is the chain rule through the resist blur.
  virtual void accumulateGradientChains(const ComplexGrid& maskSpectrum,
                                        const SpectrumView* kernels,
                                        const double* weights, int count,
                                        const RealGrid& gField,
                                        double blurSigmaPx,
                                        ComplexGrid& accum) const = 0;
};

/// Version of the production SOCS path's floating-point results, mixed
/// into the pattern store's config digest (solverConfigDigest) so masks
/// solved under other numerics are never pasted as exact hits. Bump it
/// whenever the default backend's arithmetic changes: 1 was the
/// full-grid cpu_simd path, 2 is cpu_band.
inline constexpr int kSocsNumericsVersion = 2;

/// The plain full-grid reference implementation.
const Backend& scalarBackend();
/// The band-limited implementation (library default).
const Backend& bandBackend();

/// Runtime AVX2+FMA detection (x86 only; false elsewhere). Reported in
/// the bench machine stamps.
bool cpuHasAvx2();

/// Resolve a backend name: "cpu_scalar", "cpu_band" or "auto" (cpu_band).
/// Returns nullptr for unknown names.
const Backend* findBackend(std::string_view name);

/// Process-wide backend selection. Defaults to cpu_band.
const Backend& currentBackend();
void setCurrentBackend(const Backend& backend);

/// 2-D transforms on the simulator grid (`litho.fft.full`) and on the
/// band-limited lattice (`litho.fft.coarse`) done by the SOCS path: the
/// backends, the mask spectrum and the objective's gradient inverse.
telemetry::Counter& fullTransforms();
telemetry::Counter& coarseTransforms();

}  // namespace exec
}  // namespace mosaic
