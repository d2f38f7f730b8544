#include "eval/process_window.hpp"

#include <map>
#include <vector>

#include "eval/epe.hpp"
#include "eval/shape.hpp"
#include "geometry/edges.hpp"
#include "support/error.hpp"

namespace mosaic {

ProcessWindowResult measureProcessWindow(const LithoSimulator& sim,
                                         const RealGrid& mask,
                                         const BitGrid& target,
                                         const ProcessWindowConfig& config) {
  MOSAIC_CHECK(config.focusSteps >= 2 && config.doseSteps >= 2,
               "need at least two steps per axis");
  MOSAIC_CHECK(config.maxFocusNm > 0 && config.doseSpan > 0,
               "window extents must be positive");

  const int pixelNm = sim.optics().pixelNm;
  const auto samples =
      extractSamples(target, config.sampleSpacingNm / pixelNm);

  // Row-major focus x dose grid. Each focus row shares one dose-1 image
  // (one SOCS sum per focus); every dose thresholds dose * image.
  std::vector<ProcessCorner> corners;
  corners.reserve(static_cast<std::size_t>(config.focusSteps) *
                  config.doseSteps);
  for (int fi = 0; fi < config.focusSteps; ++fi) {
    const double focus =
        config.maxFocusNm * fi / (config.focusSteps - 1);
    for (int di = 0; di < config.doseSteps; ++di) {
      const double dose = 1.0 - config.doseSpan +
                          2.0 * config.doseSpan * di /
                              (config.doseSteps - 1);
      corners.push_back({focus, dose});
    }
  }
  std::map<double, RealGrid> aerial =
      sim.aerialByFocus(sim.maskSpectrum(mask), corners);

  ProcessWindowResult result;
  result.focusSteps = config.focusSteps;
  result.doseSteps = config.doseSteps;
  result.matrix.reserve(corners.size());
  for (const ProcessCorner& corner : corners) {
    const BitGrid printed =
        sim.printBinary(aerial.at(corner.focusNm), corner.dose);
    FocusExposurePoint point;
    point.focusNm = corner.focusNm;
    point.dose = corner.dose;
    point.epeViolations = measureEpe(printed, target, samples, pixelNm,
                                     config.epeToleranceNm)
                              .violations;
    point.shapeViolations = analyzeShape(printed, target).violations();
    point.inSpec = point.epeViolations == 0 && point.shapeViolations == 0;
    result.matrix.push_back(point);
    // The last dose of a focus row releases that row's image.
    if (result.matrix.size() % static_cast<std::size_t>(config.doseSteps) ==
        0) {
      aerial.erase(corner.focusNm);
    }
  }

  // DOF at nominal dose: largest in-spec focus with all smaller focuses
  // in spec too (contiguous window from 0).
  const int nominalDoseIdx = (config.doseSteps - 1) / 2;
  for (int fi = 0; fi < config.focusSteps; ++fi) {
    const auto& point = result.at(fi, nominalDoseIdx);
    if (!point.inSpec) break;
    result.dofNm = point.focusNm;
  }

  // Exposure latitude at nominal focus: contiguous in-spec dose span
  // around dose 1.0.
  int lo = nominalDoseIdx;
  int hi = nominalDoseIdx;
  if (result.at(0, nominalDoseIdx).inSpec) {
    while (lo > 0 && result.at(0, lo - 1).inSpec) --lo;
    while (hi + 1 < config.doseSteps && result.at(0, hi + 1).inSpec) ++hi;
    result.exposureLatitudePct =
        100.0 * (result.at(0, hi).dose - result.at(0, lo).dose);
  }

  int inSpecCount = 0;
  for (const auto& point : result.matrix) inSpecCount += point.inSpec;
  result.windowFraction =
      static_cast<double>(inSpecCount) /
      static_cast<double>(result.matrix.size());
  return result;
}

}  // namespace mosaic
