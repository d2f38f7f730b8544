#pragma once
/// \file simulator.hpp
/// Forward lithography engine (paper Sec. 2, Fig. 1): mask -> aerial image
/// (SOCS) -> printed image (resist model), for any process corner. Kernel
/// sets are computed lazily per focus value and cached.

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"
#include "math/backend.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {

/// Forward lithography simulator.
///
/// A simulation costs one full-grid forward FFT of the mask and, per
/// SOCS sum, one coarse-lattice inverse FFT per kernel plus one full-grid
/// inverse of the band-limited intensity (exec::Backend, cpu_band); when
/// evaluating several corners of the same mask, compute the mask spectrum
/// once via maskSpectrum() and the images once per focus via
/// aerialByFocus().
///
/// Thread-safety contract: all const member functions are safe to call
/// concurrently on one shared instance. The lazy per-focus kernel cache
/// serializes only per focus value: each focus has its own std::call_once
/// entry, so two corners with distinct focus values compute their kernel
/// sets concurrently while a second request for the same focus blocks just
/// until the first finishes (the returned KernelSet reference stays valid
/// for the simulator's lifetime). The FFT layer keeps no shared mutable
/// scratch. This is what lets the batch runner and the tile scheduler
/// share one simulator — and its kernel sets — across workers. Non-const
/// members (setKernelCacheDir) must not race with concurrent use.
class LithoSimulator {
 public:
  explicit LithoSimulator(OpticsConfig optics, ResistModel resist = {});

  [[nodiscard]] const OpticsConfig& optics() const { return optics_; }
  [[nodiscard]] const ResistModel& resist() const { return resist_; }
  [[nodiscard]] int gridSize() const { return optics_.gridSize(); }

  /// Directory for on-disk kernel caching (io/kernel_cache format). When
  /// set, kernels(focus) first tries to load the cached decomposition and
  /// persists freshly computed ones. Empty (default) disables it. The
  /// cache filename covers grid size, focus and a hash of every optics
  /// parameter (source, NA, aberrations, ...), so settings changes can
  /// never resurrect a stale file.
  void setKernelCacheDir(std::string dir) { cacheDir_ = std::move(dir); }

  /// Kernel set for a focus offset (computed on first use, then cached).
  /// Safe to call concurrently; see the class thread-safety contract.
  const KernelSet& kernels(double focusNm) const;

  /// Eagerly compute/load the kernel sets for a list of focus values.
  /// Purely a warm-up: concurrent first use is already correct, but
  /// pre-warming keeps the expensive TCC eigendecompositions off the
  /// worker threads (the tile scheduler calls this before fan-out).
  /// Distinct foci load or compute concurrently over the work-stealing
  /// pool; a focus listed twice is done once. The kernel sets do not
  /// depend on the worker count.
  void warmKernels(const std::vector<double>& focusValuesNm) const;

  /// Execution backend for the SOCS hot loops (aerial sum; the gradient
  /// chains in opc/objective follow this too). nullptr (the default)
  /// defers to the process-wide exec::currentBackend() (cpu_band); tests
  /// and benchmarks pin cpu_scalar, the full-grid reference, to compare
  /// against it. Not thread-safe against concurrent use — set it before
  /// sharing the simulator.
  void setBackend(const exec::Backend* backend) { backend_ = backend; }
  [[nodiscard]] const exec::Backend& activeBackend() const {
    return backend_ ? *backend_ : exec::currentBackend();
  }

  /// The kernel count aerial(mask, {focusNm, ...}, maxKernels) sums:
  /// KernelSet::truncatedCount, which widens a count that ends inside a
  /// degenerate eigenvalue cluster. Logs the widening at info level.
  /// Callers that fix an in-loop count call this once when they are
  /// configured, so the log line appears once per configuration and the
  /// hot path stays silent.
  int inLoopKernelCount(double focusNm, int maxKernels) const;

  /// Forward FFT of a real mask.
  [[nodiscard]] ComplexGrid maskSpectrum(const RealGrid& mask) const;

  /// Aerial image I = dose * sum_k w_k |M (x) h_k|^2 (Eq. 2).
  /// \param maxKernels 0 = use all kernels; otherwise truncate the SOCS sum
  ///        (used by the optimizer's cheaper in-loop model) at
  ///        inLoopKernelCount(corner.focusNm, maxKernels).
  [[nodiscard]] RealGrid aerial(const RealGrid& mask,
                                const ProcessCorner& corner,
                                int maxKernels = 0) const;

  /// Same, starting from a precomputed mask spectrum.
  [[nodiscard]] RealGrid aerialFromSpectrum(const ComplexGrid& spectrum,
                                            const ProcessCorner& corner,
                                            int maxKernels = 0) const;

  /// Dose-1 aerial images of one mask spectrum for a corner list, keyed
  /// by focus: one SOCS sum (and resist blur) per *distinct* focus. Corners
  /// that share a focus differ only by a dose scalar on the same image
  /// (Eq. 18), so each caller applies corner.dose in its own epilogue —
  /// printBinary(image, dose), or a fused resist sweep. The sums fan out
  /// over the work-stealing pool; each image is exactly
  /// aerialFromSpectrum(spectrum, {focus, 1.0}, maxKernels), so the result
  /// does not depend on the worker count.
  [[nodiscard]] std::map<double, RealGrid> aerialByFocus(
      const ComplexGrid& spectrum, const std::vector<ProcessCorner>& corners,
      int maxKernels = 0) const;

  /// Continuous printed image Z = sig(I) (Eq. 4).
  [[nodiscard]] RealGrid printContinuous(const RealGrid& aerialImage) const;

  /// Binary printed image via the hard threshold (Eq. 3) of dose * I.
  /// Pass a dose-1 image from aerialByFocus and the corner's dose.
  [[nodiscard]] BitGrid printBinary(const RealGrid& aerialImage,
                                    double dose = 1.0) const;

  /// Convenience: mask -> binary print at a corner with the full kernel set.
  [[nodiscard]] BitGrid print(const RealGrid& mask,
                              const ProcessCorner& corner) const;

 private:
  /// One lazily-computed kernel set. The once_flag gates computation so
  /// the map mutex is never held across computeKernelSet — distinct focus
  /// values proceed in parallel.
  struct KernelEntry {
    std::once_flag once;
    std::unique_ptr<KernelSet> set;
  };

  KernelEntry& kernelEntry(double focusNm) const;
  void computeInto(KernelEntry& entry, double focusNm) const;

  OpticsConfig optics_;
  ResistModel resist_;
  std::string cacheDir_;
  const exec::Backend* backend_ = nullptr;
  /// Guards only the map itself (entry lookup/insert), never kernel
  /// computation. Entries are shared_ptrs so references stay stable after
  /// the lock is released.
  mutable std::mutex kernelMutex_;
  mutable std::map<double, std::shared_ptr<KernelEntry>> kernelCache_;
};

}  // namespace mosaic
