/// Worker-count invariance of the ILT objective, the optimizer and the
/// TCC build: the per-focus SOCS sums, the PV-corner epilogues and the TCC
/// tiles fan out over the work-stealing pool, and every merge runs
/// serially in a fixed order, so evaluate(), a whole runOpc and buildTcc
/// must be bit-identical at 1, 2 and 4 workers. Labelled `tsan`: the same
/// runs exercise the nested fan-out under a -DMOSAIC_SANITIZE=thread
/// build, as does the cold kernel request from inside a parallel loop.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <set>

#include "geometry/raster.hpp"
#include "litho/pupil.hpp"
#include "litho/tcc.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "opc/sraf.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/metrics.hpp"

namespace mosaic {
namespace {

constexpr int kPixelNm = 8;  // 128 x 128 grid for the 1024 nm clips

const LithoSimulator& sim() {
  static const LithoSimulator instance([] {
    OpticsConfig o;
    o.pixelNm = kPixelNm;
    return o;
  }());
  return instance;
}

/// Restores the hardware-default worker count when a test ends.
struct ParallelismGuard {
  ~ParallelismGuard() { setParallelism(0); }
};

TEST(WorkerInvariance, ObjectiveEvaluateIsBitIdentical) {
  const ParallelismGuard guard;
  const BitGrid target = rasterize(buildTestcase(2), kPixelNm);
  const RealGrid mask = toReal(insertSraf(target, kPixelNm));
  for (const OpcMethod method :
       {OpcMethod::kMosaicFast, OpcMethod::kMosaicExact}) {
    SCOPED_TRACE(methodName(method));
    const IltObjective objective(sim(), target,
                                 defaultIltConfig(method, kPixelNm));
    setParallelism(1);
    const IltObjective::Evaluation serial = objective.evaluate(mask, true);
    for (const int workers : {2, 4}) {
      setParallelism(workers);
      const IltObjective::Evaluation got = objective.evaluate(mask, true);
      EXPECT_EQ(got.value, serial.value) << workers << " workers";
      EXPECT_EQ(got.pvbValue, serial.pvbValue) << workers << " workers";
      EXPECT_TRUE(got.gradMask == serial.gradMask) << workers << " workers";
    }
  }
}

TEST(WorkerInvariance, RunOpcIsBitIdentical) {
  const ParallelismGuard guard;
  const BitGrid target = rasterize(buildTestcase(5), kPixelNm);
  for (const OpcMethod method :
       {OpcMethod::kMosaicFast, OpcMethod::kMosaicExact}) {
    SCOPED_TRACE(methodName(method));
    IltConfig cfg = defaultIltConfig(method, kPixelNm);
    cfg.maxIterations = 10;
    const auto run = [&](int workers) {
      setParallelism(workers);
      return runOpc(sim(), target, method, &cfg);
    };
    const OpcResult serial = run(1);
    ASSERT_EQ(serial.history.size(), 10u);
    for (const int workers : {2, 4}) {
      const OpcResult got = run(workers);
      EXPECT_TRUE(got.maskContinuous == serial.maskContinuous)
          << workers << " workers";
      EXPECT_EQ(got.maskBinary, serial.maskBinary) << workers << " workers";
      ASSERT_EQ(got.history.size(), serial.history.size());
      for (std::size_t i = 0; i < got.history.size(); ++i) {
        EXPECT_EQ(got.history[i].objective, serial.history[i].objective)
            << workers << " workers, iteration " << i;
      }
    }
  }
}

/// The serial TCC build buildTcc must reproduce byte for byte: one
/// rank-one update per source point over the upper triangle, skipping zero
/// pupil values, then normalization and the Hermitian mirror.
std::vector<std::complex<double>> serialTcc(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice) {
  const Pupil pupil(optics, focusNm);
  const double cutoff = optics.cutoffFreq();
  const double srcStep = optics.freqStep() / optics.sourceOversample;
  const double srcInner = optics.sigmaInner * cutoff;
  const double srcOuter = optics.sigmaOuter * cutoff;
  std::vector<std::pair<double, double>> source;
  const int srcMax = static_cast<int>(std::ceil(srcOuter / srcStep));
  for (int si = -srcMax; si <= srcMax; ++si) {
    for (int sj = -srcMax; sj <= srcMax; ++sj) {
      const double sy = si * srcStep;
      const double sx = sj * srcStep;
      const double r2 = sx * sx + sy * sy;
      if (r2 < srcInner * srcInner || r2 > srcOuter * srcOuter) continue;
      source.emplace_back(sx, sy);
    }
  }
  const std::size_t n = lattice.size();
  std::vector<std::complex<double>> row(n);
  std::vector<std::complex<double>> tcc(n * n, {0.0, 0.0});
  for (const auto& [sx, sy] : source) {
    for (std::size_t p = 0; p < n; ++p) {
      row[p] = pupil.value(sx + lattice[p].fx, sy + lattice[p].fy);
    }
    for (std::size_t p = 0; p < n; ++p) {
      if (row[p] == std::complex<double>{0.0, 0.0}) continue;
      const std::complex<double> pp = row[p];
      for (std::size_t q = p; q < n; ++q) {
        tcc[p * n + q] += pp * std::conj(row[q]);
      }
    }
  }
  const double norm = 1.0 / static_cast<double>(source.size());
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p; q < n; ++q) {
      auto& upper = tcc[p * n + q];
      upper *= norm;
      tcc[q * n + p] = std::conj(upper);
    }
  }
  return tcc;
}

bool sameBytes(const std::vector<std::complex<double>>& a,
               const std::vector<std::complex<double>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(std::complex<double>)) == 0;
}

TEST(WorkerInvariance, TccBuildIsBitIdentical) {
  const ParallelismGuard guard;
  struct Case {
    const char* name;
    OpticsConfig optics;
    double focusNm;
  };
  std::vector<Case> cases;
  OpticsConfig contest;  // 1024 nm clip: 161 lattice samples
  contest.pixelNm = 16;
  cases.push_back({"contest focus 0", contest, 0.0});
  cases.push_back({"contest focus 25", contest, 25.0});
  OpticsConfig aberrated = contest;
  aberrated.aberrations.astigmatism0 = 0.03;
  aberrated.aberrations.comaX = -0.02;
  aberrated.aberrations.spherical = 0.015;
  cases.push_back({"aberrated focus 25", aberrated, 25.0});
  OpticsConfig small = contest;
  small.clipSizeNm = 512;
  small.pixelNm = 8;
  cases.push_back({"512 nm clip", small, 25.0});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto lattice = pupilLattice(c.optics);
    // Ragged edge tiles: the last tile row and column are partial.
    ASSERT_NE(lattice.size() % kTccTileEdge, 0u);
    const auto reference = serialTcc(c.optics, c.focusNm, lattice);
    for (const int workers : {1, 2, 4}) {
      setParallelism(workers);
      EXPECT_TRUE(sameBytes(buildTcc(c.optics, c.focusNm, lattice), reference))
          << workers << " workers";
    }
  }
}

TEST(WorkerInvariance, ColdKernelRequestsFromInsideAParallelLoop) {
  // Eight tasks ask a cold simulator for one focus while the first of them
  // builds it, and the build fans out over the same pool. A thread that
  // waits for the build's tiles must not pick up a sibling task: that task
  // would re-enter the focus' call_once on the same thread and deadlock.
  const ParallelismGuard guard;
  setParallelism(4);
  OpticsConfig optics;
  optics.pixelNm = 16;
  const LithoSimulator cold(optics);
  telemetry::Histogram& computed =
      telemetry::metrics().histogram("litho.kernels.compute");
  const std::uint64_t before = computed.count();
  std::vector<const KernelSet*> seen(8, nullptr);
  parallelFor(0, seen.size(),
              [&](std::size_t i) { seen[i] = &cold.kernels(0.0); });
  EXPECT_EQ(computed.count() - before, 1u);
  const std::set<const KernelSet*> distinct(seen.begin(), seen.end());
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_NE(seen.front(), nullptr);
}

}  // namespace
}  // namespace mosaic
