#include "eval/evaluator.hpp"

#include <map>
#include <vector>

#include "geometry/edges.hpp"
#include "support/error.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

CaseEvaluation evaluateMask(const LithoSimulator& sim, const RealGrid& mask,
                            const BitGrid& target, double runtimeSec,
                            const EvalConfig& config) {
  MOSAIC_SPAN("eval.case");
  const int pixelNm = sim.optics().pixelNm;
  MOSAIC_CHECK(config.sampleSpacingNm >= pixelNm,
               "sample spacing below pixel pitch");

  CaseEvaluation eval;
  eval.runtimeSec = runtimeSec;

  // One forward mask FFT and one SOCS sum per distinct focus for the whole
  // evaluation: the nominal print reuses the focus-0 image of the PV band
  // (the litho.mask_spectrum and litho.aerial_sum counters pin both in
  // tests/test_backend.cpp).
  std::vector<ProcessCorner> imaged = config.corners;
  imaged.push_back(nominalCorner());
  const std::map<double, RealGrid> aerial =
      sim.aerialByFocus(sim.maskSpectrum(mask), imaged);

  // Nominal print: EPE + shape.
  const BitGrid nominalPrint =
      sim.printBinary(aerial.at(nominalCorner().focusNm));
  const auto samples = extractSamples(target, config.sampleSpacingNm / pixelNm);
  const EpeResult epe = measureEpe(nominalPrint, target, samples, pixelNm,
                                   config.epeThresholdNm);
  eval.epeViolations = epe.violations;
  eval.meanAbsEpeNm = epe.meanAbsEpeNm;
  eval.maxAbsEpeNm = epe.maxAbsEpeNm;

  const ShapeResult shape = analyzeShape(nominalPrint, target);
  eval.shapeViolations = shape.violations();
  eval.holes = shape.holes;
  eval.missingFeatures = shape.missingFeatures;

  // PV band across the full corner set, reusing the per-focus images.
  const PvBandResult pvb = computePvBand(sim, aerial, config.corners);
  eval.pvbandAreaNm2 = pvb.bandAreaNm2;

  eval.score = contestScore(runtimeSec, eval.pvbandAreaNm2,
                            eval.epeViolations, eval.shapeViolations,
                            config.weights);
  return eval;
}

}  // namespace mosaic
