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
/// objective stay algorithm-shaped while the execution strategy —
/// scalar loops, AVX2 lanes, pruned transforms — is swappable at runtime
/// and GPU-shaped backends have a socket to land in later.
///
/// Implementations:
///  - `cpu_simd`: batched multi-spectrum inverse transforms that skip
///    all-zero rows of the band-limited kernel spectra, a liveness-aware
///    column pass, explicit AVX2/FMA butterflies (portable 4-wide lanes
///    when AVX2 is unavailable), and fused weighted-|.|^2 accumulation.
///    This is the library default: what the apps run, and what every
///    test runs unless it picks a backend itself.
///  - `cpu_scalar`: the plain per-kernel loops, kept as the readable
///    reference that tests/test_backend.cpp compares cpu_simd against
///    (agreement ~1e-12, tested at 1e-10). cpu_simd also falls back to
///    it for grids under 8x8.
///
/// Thread-safety: backends are immutable singletons; every method is
/// const and uses only per-thread scratch. The process-wide selection
/// (currentBackend/setCurrentBackend) is an atomic pointer — set it once
/// at startup, not concurrently with running work.

#include <complex>
#include <string_view>

#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {
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

  /// intensity += dose * sum_k weights[k] * |ifft(kernels[k] .* spectrum)|^2.
  ///
  /// `intensity` is accumulated into (callers pass a zeroed grid). How the
  /// dose factor is applied is backend-defined: cpu_scalar sums first and
  /// applies the dose in one sweep at the end; cpu_simd folds it into the
  /// per-kernel weights. The two orders agree to roundoff and the
  /// regression tests in tests/test_backend.cpp pin the combination with
  /// resist blur.
  virtual void accumulateCoherentIntensity(const Fft2d& fft,
                                           const ComplexGrid& spectrum,
                                           const SpectrumView* kernels,
                                           const double* weights, int count,
                                           double dose,
                                           RealGrid& intensity) const = 0;

  /// accum += sum_k weights[k] * flip(kernels[k]) .*
  ///          fft(gField .* conj(ifft(kernels[k] .* maskSpectrum)))
  ///
  /// The gradient convolution chain of Eq. 17, summed over a kernel set
  /// into the spectral accumulator (the caller inverse-transforms `accum`
  /// once per evaluation). flip(s) moves the sample at (r, c) to
  /// ((R-r)%R, (C-c)%C) with the value unchanged.
  virtual void accumulateGradientChains(const Fft2d& fft,
                                        const ComplexGrid& maskSpectrum,
                                        const SpectrumView* kernels,
                                        const double* weights, int count,
                                        const RealGrid& gField,
                                        ComplexGrid& accum) const = 0;
};

/// The plain reference implementation.
const Backend& scalarBackend();
/// Batched/pruned implementation (library default); AVX2+FMA when the
/// CPU has it.
const Backend& simdBackend();

/// Runtime AVX2+FMA detection (x86 only; false elsewhere).
bool cpuHasAvx2();

/// Resolve a backend name: "cpu_scalar", "cpu_simd" or "auto" (cpu_simd,
/// whose kernels degrade to portable lanes without AVX2). Returns nullptr
/// for unknown names.
const Backend* findBackend(std::string_view name);

/// Process-wide backend selection. Defaults to cpu_simd.
const Backend& currentBackend();
void setCurrentBackend(const Backend& backend);

}  // namespace exec
}  // namespace mosaic
