#include "eval/pvband.hpp"

#include "geometry/bitmap_ops.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

PvBandResult computePvBand(const LithoSimulator& sim, const RealGrid& mask,
                           const std::vector<ProcessCorner>& corners) {
  return computePvBand(sim, sim.maskSpectrum(mask), corners);
}

PvBandResult computePvBand(const LithoSimulator& sim,
                           const ComplexGrid& spectrum,
                           const std::vector<ProcessCorner>& corners) {
  return computePvBand(sim, sim.aerialByFocus(spectrum, corners), corners);
}

PvBandResult computePvBand(const LithoSimulator& sim,
                           const std::map<double, RealGrid>& aerialByFocus,
                           const std::vector<ProcessCorner>& corners) {
  MOSAIC_CHECK(!corners.empty(), "PV band needs at least one corner");
  MOSAIC_SPAN("eval.pvband");
  PvBandResult result;
  bool first = true;
  for (const auto& corner : corners) {
    const BitGrid print =
        sim.printBinary(aerialByFocus.at(corner.focusNm), corner.dose);
    if (first) {
      result.outer = print;
      result.inner = print;
      first = false;
    } else {
      result.outer = bitOr(result.outer, print);
      result.inner = bitAnd(result.inner, print);
    }
  }
  result.band = bitSub(result.outer, result.inner);
  result.bandPixels = countSet(result.band);
  const double pixelArea = static_cast<double>(sim.optics().pixelNm) *
                           static_cast<double>(sim.optics().pixelNm);
  result.bandAreaNm2 = static_cast<double>(result.bandPixels) * pixelArea;
  return result;
}

}  // namespace mosaic
