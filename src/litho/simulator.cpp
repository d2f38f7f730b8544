#include "litho/simulator.hpp"

#include <algorithm>

#include "litho/kernel_cache.hpp"
#include "litho/tcc.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace mosaic {

LithoSimulator::LithoSimulator(OpticsConfig optics, ResistModel resist)
    : optics_(optics), resist_(resist) {
  optics_.validate();
  MOSAIC_CHECK(resist_.threshold > 0.0 && resist_.threshold < 1.0,
               "resist threshold must be inside (0, 1)");
}

LithoSimulator::KernelEntry& LithoSimulator::kernelEntry(
    double focusNm) const {
  std::lock_guard<std::mutex> lock(kernelMutex_);
  std::shared_ptr<KernelEntry>& slot = kernelCache_[focusNm];
  if (!slot) slot = std::make_shared<KernelEntry>();
  return *slot;
}

void LithoSimulator::computeInto(KernelEntry& entry, double focusNm) const {
  MOSAIC_FAILPOINT("litho.kernel_load");
  // Kernel sets read from the cache, next to the litho.kernels.compute
  // span count of the ones built; registered on first use so a run that
  // builds every set reports 0.
  static telemetry::Counter& loaded =
      telemetry::metrics().counter("litho.kernels.loaded");
  std::unique_ptr<KernelSet> set;
  const std::string cachePath =
      cacheDir_.empty()
          ? std::string()
          : cacheDir_ + "/" + kernelCacheName(optics_, focusNm);
  if (!cachePath.empty()) {
    try {
      set = std::make_unique<KernelSet>(loadKernelSet(cachePath));
      loaded.add(1);
      LOG_INFO("loaded kernel cache " << cachePath);
    } catch (const Error&) {
      set.reset();  // miss or stale file -- recompute below
    }
  }
  if (!set) {
    MOSAIC_SPAN("litho.kernels.compute");
    WallTimer timer;
    set = std::make_unique<KernelSet>(computeKernelSet(optics_, focusNm));
    LOG_INFO("computed " << set->kernels.size() << " SOCS kernels for focus "
                         << focusNm << " nm in " << timer.seconds() << " s");
    if (!cachePath.empty()) {
      try {
        saveKernelSet(cachePath, *set);
      } catch (const Error& e) {
        LOG_WARN("could not persist kernel cache: " << e.what());
      }
    }
  }
  entry.set = std::move(set);
}

const KernelSet& LithoSimulator::kernels(double focusNm) const {
  // Two-level scheme: the mutex only covers finding/creating the per-focus
  // entry; the expensive load/compute runs under that entry's call_once.
  // Distinct focus values therefore compute concurrently, while duplicate
  // requests for one focus still do the work exactly once. If the compute
  // throws, call_once lets the next caller retry.
  KernelEntry& entry = kernelEntry(focusNm);
  std::call_once(entry.once, [&] { computeInto(entry, focusNm); });
  return *entry.set;
}

void LithoSimulator::warmKernels(
    const std::vector<double>& focusValuesNm) const {
  std::vector<double> foci = focusValuesNm;
  std::sort(foci.begin(), foci.end());
  foci.erase(std::unique(foci.begin(), foci.end()), foci.end());
  parallelFor(0, foci.size(), [&](std::size_t i) { (void)kernels(foci[i]); });
}

ComplexGrid LithoSimulator::maskSpectrum(const RealGrid& mask) const {
  const int n = gridSize();
  MOSAIC_CHECK(mask.rows() == n && mask.cols() == n,
               "mask is " << mask.rows() << "x" << mask.cols()
                          << ", expected " << n << "x" << n);
  MOSAIC_SPAN("litho.mask_spectrum");
  // Counts forward mask FFTs so tests can pin "exactly one spectrum per
  // mask per evaluation" (the PV-band hoist fix in eval/evaluator).
  static telemetry::Counter& spectra =
      telemetry::metrics().counter("litho.mask_spectrum");
  spectra.add(1);
  exec::fullTransforms().add(1);
  return fft2dFor(n, n).forwardReal(mask);
}

RealGrid LithoSimulator::aerial(const RealGrid& mask,
                                const ProcessCorner& corner,
                                int maxKernels) const {
  return aerialFromSpectrum(maskSpectrum(mask), corner, maxKernels);
}

int LithoSimulator::inLoopKernelCount(double focusNm, int maxKernels) const {
  const KernelSet& set = kernels(focusNm);
  const int count = set.truncatedCount(maxKernels);
  if (maxKernels > 0 && count != std::min(maxKernels, set.kernelCount())) {
    LOG_INFO("SOCS truncation at " << maxKernels << " kernels splits a "
             << "degenerate eigenvalue cluster at focus " << focusNm
             << " nm; using " << count);
  }
  return count;
}

RealGrid LithoSimulator::aerialFromSpectrum(const ComplexGrid& spectrum,
                                            const ProcessCorner& corner,
                                            int maxKernels) const {
  const int n = gridSize();
  MOSAIC_CHECK(spectrum.rows() == n && spectrum.cols() == n,
               "spectrum grid mismatch");
  MOSAIC_SPAN("litho.aerial");
  // Counts SOCS sums so tests can pin "one sum per distinct focus per
  // evaluation" next to the one-spectrum contract above.
  static telemetry::Counter& sums =
      telemetry::metrics().counter("litho.aerial_sum");
  sums.add(1);
  const KernelSet& set = kernels(corner.focusNm);
  const int count = set.truncatedCount(maxKernels);
  // The SOCS sum runs on the selected execution backend, which also
  // applies the dose and then the resist blur, each exactly once
  // (regression-tested in tests/test_backend.cpp for dose != 1 combined
  // with blur > 0).
  std::vector<exec::SpectrumView> views(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const SparseSpectrum& spec = set.kernels[static_cast<std::size_t>(k)];
    views[static_cast<std::size_t>(k)] = {spec.flatIndex.data(),
                                          spec.value.data(),
                                          spec.flatIndex.size()};
  }
  RealGrid intensity(n, n);
  activeBackend().coherentIntensity(
      spectrum, views.data(), set.weights.data(), count, corner.dose,
      resist_.diffusionSigmaNm / optics_.pixelNm, intensity);
  return intensity;
}

std::map<double, RealGrid> LithoSimulator::aerialByFocus(
    const ComplexGrid& spectrum, const std::vector<ProcessCorner>& corners,
    int maxKernels) const {
  std::map<double, RealGrid> images;
  for (const auto& corner : corners) images[corner.focusNm];
  std::vector<std::pair<const double, RealGrid>*> slots;
  for (auto& slot : images) slots.push_back(&slot);
  parallelFor(0, slots.size(), [&](std::size_t i) {
    slots[i]->second = aerialFromSpectrum(
        spectrum, ProcessCorner{slots[i]->first, 1.0}, maxKernels);
  });
  return images;
}

RealGrid LithoSimulator::printContinuous(const RealGrid& aerialImage) const {
  RealGrid out(aerialImage.rows(), aerialImage.cols());
  for (std::size_t i = 0; i < aerialImage.size(); ++i) {
    out.data()[i] = resist_.sigmoid(aerialImage.data()[i]);
  }
  return out;
}

BitGrid LithoSimulator::printBinary(const RealGrid& aerialImage,
                                    double dose) const {
  BitGrid out(aerialImage.rows(), aerialImage.cols());
  for (std::size_t i = 0; i < aerialImage.size(); ++i) {
    out.data()[i] = resist_.prints(dose * aerialImage.data()[i]) ? 1u : 0u;
  }
  return out;
}

BitGrid LithoSimulator::print(const RealGrid& mask,
                              const ProcessCorner& corner) const {
  return printBinary(aerial(mask, corner));
}

}  // namespace mosaic
