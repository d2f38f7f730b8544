/// Worker-count invariance of the ILT objective and the optimizer: the
/// per-focus SOCS sums and the PV-corner epilogues fan out over the
/// work-stealing pool, and every merge runs serially in a fixed order, so
/// evaluate() and a whole runOpc must be bit-identical at 1, 2 and 4
/// workers. Labelled `tsan`: the same runs exercise the nested fan-out
/// under a -DMOSAIC_SANITIZE=thread build.

#include <gtest/gtest.h>

#include "geometry/raster.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "opc/sraf.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"

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

}  // namespace
}  // namespace mosaic
