#pragma once
/// \file pvband.hpp
/// Process variability band (paper Fig. 4): the area between the outermost
/// and innermost printed contour over all process corners, computed with
/// boolean raster operations.

#include <map>
#include <vector>

#include "litho/simulator.hpp"
#include "math/grid.hpp"

namespace mosaic {

struct PvBandResult {
  BitGrid outer;        ///< union of all corner prints
  BitGrid inner;        ///< intersection of all corner prints
  BitGrid band;         ///< outer AND NOT inner
  long long bandPixels = 0;
  double bandAreaNm2 = 0.0;
};

/// Print the mask at every corner and assemble the PV band. The mask
/// spectrum is computed once and the aerial image once per distinct focus.
PvBandResult computePvBand(const LithoSimulator& sim, const RealGrid& mask,
                           const std::vector<ProcessCorner>& corners);

/// Same, starting from a precomputed mask spectrum.
PvBandResult computePvBand(const LithoSimulator& sim,
                           const ComplexGrid& spectrum,
                           const std::vector<ProcessCorner>& corners);

/// Same, from the dose-1 per-focus images of LithoSimulator::aerialByFocus
/// (which must hold every corner's focus) — eval/evaluator shares them
/// between the nominal print and the PV band. Each corner prints
/// dose * image.
PvBandResult computePvBand(const LithoSimulator& sim,
                           const std::map<double, RealGrid>& aerialByFocus,
                           const std::vector<ProcessCorner>& corners);

}  // namespace mosaic
