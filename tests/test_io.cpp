/// Tests for polygon decomposition and GLP layout I/O.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "geometry/polygon.hpp"
#include "geometry/raster.hpp"
#include "io/glp.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/simulator.hpp"
#include "math/stats.hpp"
#include "suite/testcases.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry/metrics.hpp"

namespace mosaic {
namespace {

// -------------------------------------------------------------- polygon

TEST(Polygon, RectanglePolygonRoundTrip) {
  const RectNm rect{10, 20, 50, 60};
  const PolygonNm poly = toPolygon(rect);
  EXPECT_EQ(poly.vertexCount(), 4u);
  EXPECT_EQ(poly.area(), rect.area());
  const auto rects = decomposeRectilinear(poly);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], rect);
}

TEST(Polygon, SignedAreaOrientation) {
  PolygonNm ccw;
  ccw.vertices = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_EQ(ccw.signedArea(), 16);
  PolygonNm cw;
  cw.vertices = {{0, 0}, {0, 4}, {4, 4}, {4, 0}};
  EXPECT_EQ(cw.signedArea(), -16);
  EXPECT_EQ(cw.area(), 16);
}

TEST(Polygon, LShapeDecomposesToTwoRects) {
  // L-shape: 8x8 square minus its top-right 4x4 quadrant.
  PolygonNm poly;
  poly.vertices = {{0, 0}, {8, 0}, {8, 4}, {4, 4}, {4, 8}, {0, 8}};
  const auto rects = decomposeRectilinear(poly);
  long long area = 0;
  for (const auto& r : rects) area += r.area();
  EXPECT_EQ(area, poly.area());
  EXPECT_EQ(area, 48);
  EXPECT_LE(rects.size(), 2u);
}

TEST(Polygon, StaircaseDecomposition) {
  PolygonNm poly;
  poly.vertices = {{0, 0}, {12, 0}, {12, 4}, {8, 4},
                   {8, 8}, {4, 8},  {4, 12}, {0, 12}};
  const auto rects = decomposeRectilinear(poly);
  long long area = 0;
  for (const auto& r : rects) {
    area += r.area();
    for (const auto& other : rects) {
      if (&r != &other) {
        EXPECT_FALSE(r.intersects(other));
      }
    }
  }
  EXPECT_EQ(area, poly.area());
}

TEST(Polygon, UShapeDecomposition) {
  // U-shape: three slabs; inner bay must remain uncovered.
  PolygonNm poly;
  poly.vertices = {{0, 0}, {12, 0}, {12, 10}, {8, 10},
                   {8, 4}, {4, 4},  {4, 10},  {0, 10}};
  const auto rects = decomposeRectilinear(poly);
  long long area = 0;
  for (const auto& r : rects) area += r.area();
  EXPECT_EQ(area, poly.area());
  // The bay center (6, 7) is outside every rect.
  for (const auto& r : rects) EXPECT_FALSE(r.contains(6.0, 7.0));
}

TEST(Polygon, ValidationErrors) {
  PolygonNm tooFew;
  tooFew.vertices = {{0, 0}, {1, 0}, {1, 1}};
  EXPECT_THROW(tooFew.validate(), InvalidArgument);

  PolygonNm diagonal;
  diagonal.vertices = {{0, 0}, {4, 4}, {4, 0}, {0, 4}};
  EXPECT_THROW(diagonal.validate(), InvalidArgument);

  PolygonNm degenerateEdge;
  degenerateEdge.vertices = {{0, 0}, {0, 0}, {4, 4}, {0, 4}};
  EXPECT_THROW(degenerateEdge.validate(), InvalidArgument);
}

// ------------------------------------------------------------------ glp

TEST(Glp, ParsesRectRecords) {
  std::istringstream in(
      "BEGIN\n"
      "EQUIV  1  1000  MICRON  +X,+Y\n"
      "CNAME clip\n"
      "LEVEL M1\n"
      "   RECT N M1 100 200 300 400\n"
      "   RECT N M1 500 200 700 400\n"
      "ENDMSG\n");
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout layout = readGlp(in, "clip", opts);
  ASSERT_EQ(layout.rects.size(), 2u);
  EXPECT_EQ(layout.rects[0], (RectNm{100, 200, 300, 400}));
  EXPECT_EQ(layout.patternArea(), 2 * 200 * 200);
}

TEST(Glp, ParsesPolygonRecords) {
  std::istringstream in(
      "BEGIN\n"
      "PGON N M1 100 100 300 100 300 200\n"
      "  200 200 200 300 100 300\n"
      "ENDMSG\n");
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout layout = readGlp(in, "pgon", opts);
  EXPECT_GE(layout.rects.size(), 2u);
  EXPECT_EQ(layout.patternArea(), 200 * 100 + 100 * 100);
}

TEST(Glp, RecentersPattern) {
  std::istringstream in("RECT N M1 10000 20000 10100 20100\n");
  GlpReadOptions opts;
  opts.clipSizeNm = 1024;
  opts.recenter = true;
  const Layout layout = readGlp(in, "far", opts);
  ASSERT_EQ(layout.rects.size(), 1u);
  const RectNm& r = layout.rects[0];
  EXPECT_EQ(r.width(), 100);
  // Centered: equal margins.
  EXPECT_EQ(r.x0, (1024 - 100) / 2);
  EXPECT_EQ(r.y0, (1024 - 100) / 2);
}

TEST(Glp, RejectsMalformedInput) {
  {
    std::istringstream in("RECT N M1 1 2 3\n");  // missing coordinate
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("FOO bar\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("PGON N M1 0 0 4 0 4\n");  // odd coordinates
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    // Pattern larger than the clip window.
    std::istringstream in("RECT N M1 0 0 5000 5000\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, RejectsCoordinateOverflow) {
  {
    // Does not fit in an int at all.
    std::istringstream in("RECT N M1 0 0 99999999999999999999 100\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    // Fits in an int but is beyond any plausible layout extent (> 1 m).
    std::istringstream in("RECT N M1 0 0 2000000000 100\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, RejectsZeroAndNegativeAreaRects) {
  {
    std::istringstream in("RECT N M1 100 100 100 200\n");  // zero width
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("RECT N M1 100 100 200 100\n");  // zero height
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("RECT N M1 300 300 200 400\n");  // inverted x
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, RejectsTruncatedRecords) {
  {
    std::istringstream in("BEGIN\nEQUIV 1 1000\nENDMSG\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("BEGIN\nCNAME\nENDMSG\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    // PGON that ends before forming a closed polygon (< 4 vertices).
    std::istringstream in("PGON N M1 0 0 100 0\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, ParseFailpointInjectsThrow) {
  failpoint::ScopedFailpoints sfp("io.glp.parse:throw");
  std::istringstream in("RECT N M1 100 200 300 400\n");
  EXPECT_THROW(readGlp(in, "x"), Error);
}

TEST(Glp, WriteReadRoundTripPreservesGeometry) {
  const Layout original = buildTestcase(6);
  std::ostringstream out;
  writeGlp(out, original);
  std::istringstream in(out.str());
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout loaded = readGlp(in, original.name, opts);
  EXPECT_EQ(loaded.patternArea(), original.patternArea());
  // Rasters must be identical.
  EXPECT_EQ(rasterize(loaded, 4), rasterize(original, 4));
}

class GlpSuiteRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(GlpSuiteRoundTrip, FileRoundTrip) {
  const Layout original = buildTestcase(GetParam());
  const auto path = std::filesystem::temp_directory_path() /
                    ("mosaic_glp_" + original.name + ".glp");
  writeGlpFile(path.string(), original);
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout loaded = readGlpFile(path.string(), opts);
  EXPECT_EQ(loaded.name, "mosaic_glp_" + original.name);  // file stem
  EXPECT_EQ(rasterize(loaded, 8), rasterize(original, 8));
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(B, GlpSuiteRoundTrip, ::testing::Range(1, 11));

TEST(Glp, MissingFileThrows) {
  EXPECT_THROW(readGlpFile("/nonexistent/dir/x.glp"), InvalidArgument);
}

// ----------------------------------------------------------- kernel cache

TEST(KernelCache, RoundTripPreservesEverything) {
  OpticsConfig optics;
  optics.pixelNm = 16;  // small grid keeps the TCC build fast
  LithoSimulator sim(optics);
  const KernelSet& original = sim.kernels(25.0);

  const auto path = std::filesystem::temp_directory_path() /
                    kernelCacheName(original.gridSize, original.focusNm);
  saveKernelSet(path.string(), original);
  const KernelSet loaded = loadKernelSet(path.string());

  EXPECT_EQ(loaded.gridSize, original.gridSize);
  EXPECT_DOUBLE_EQ(loaded.focusNm, original.focusNm);
  ASSERT_EQ(loaded.kernels.size(), original.kernels.size());
  for (std::size_t k = 0; k < loaded.kernels.size(); ++k) {
    EXPECT_DOUBLE_EQ(loaded.weights[k], original.weights[k]);
    ASSERT_EQ(loaded.kernels[k].flatIndex, original.kernels[k].flatIndex);
    for (std::size_t i = 0; i < loaded.kernels[k].value.size(); ++i) {
      EXPECT_EQ(loaded.kernels[k].value[i], original.kernels[k].value[i]);
    }
  }
  EXPECT_EQ(loaded.combined.flatIndex, original.combined.flatIndex);
  std::filesystem::remove(path);
}

TEST(KernelCache, RejectsGarbageAndMissing) {
  EXPECT_THROW(loadKernelSet("/nonexistent/kernels.bin"), InvalidArgument);
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_bad_kernels.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a kernel cache";
  }
  EXPECT_THROW(loadKernelSet(path.string()), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(KernelCache, CacheNameEncodesGridAndFocus) {
  EXPECT_EQ(kernelCacheName(256, 25.0), "kernels_g256_f250.bin");
  EXPECT_EQ(kernelCacheName(128, 0.0), "kernels_g128_f0.bin");
}

TEST(KernelCache, OpticsAwareNameSeparatesPupilAndSourceSettings) {
  OpticsConfig base;
  base.pixelNm = 16;
  const std::string name = kernelCacheName(base, 25.0);
  EXPECT_EQ(name.find("kernels_g64_f250_o"), 0u) << name;
  EXPECT_EQ(name, kernelCacheName(base, 25.0)) << "name must be deterministic";

  // Every optical knob must change the name, so a cache directory can
  // never serve kernels computed under different settings.
  OpticsConfig na = base;
  na.na = 1.2;
  EXPECT_NE(kernelCacheName(na, 25.0), name);
  OpticsConfig source = base;
  source.sigmaOuter = 0.8;
  EXPECT_NE(kernelCacheName(source, 25.0), name);
  OpticsConfig aberrated = base;
  aberrated.aberrations.comaX = 0.02;
  EXPECT_NE(kernelCacheName(aberrated, 25.0), name);
  OpticsConfig truncated = base;
  truncated.kernelCount = 12;
  EXPECT_NE(kernelCacheName(truncated, 25.0), name);

  // ...while grid-equivalent but differently-expressed geometry matches.
  EXPECT_EQ(opticsParameterHash(base), opticsParameterHash(base));
  EXPECT_EQ(kernelCacheName(base, -25.0), "kernels_g64_f-250_o" +
                                              opticsParameterHash(base) +
                                              ".bin");
}

TEST(KernelCache, SolverVersionIsPartOfTheName) {
  // Pinned: a change to this name means every kernel file and pattern-store
  // entry on disk is recomputed, so it must be deliberate (bump
  // kKernelSolverVersion when the eigensolver or phase convention changes).
  const OpticsConfig optics;
  EXPECT_EQ(kernelCacheName(optics, 0.0),
            "kernels_g512_f0_o7fe3e3672b303447.bin");
  EXPECT_EQ(kKernelSolverVersion, 2);

  // A file under the name the version-1 (Jacobi) build used must not be
  // looked up: plant one with a recognizable marker weight.
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_version";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string oldName = "kernels_g512_f0_oc7dda30d56374165.bin";
  ASSERT_NE(kernelCacheName(optics, 0.0), oldName);
  KernelSet stale;
  stale.gridSize = optics.gridSize();
  stale.weights = {123.0};
  SparseSpectrum dc;
  dc.gridSize = stale.gridSize;
  dc.flatIndex = {0};
  dc.value = {{1.0, 0.0}};
  stale.kernels = {dc};
  stale.combined = dc;
  saveKernelSet((dir / oldName).string(), stale);

  LithoSimulator sim(optics);
  sim.setKernelCacheDir(dir.string());
  const KernelSet& set = sim.kernels(0.0);
  EXPECT_EQ(set.kernelCount(), 24);
  EXPECT_NE(set.weights.front(), 123.0);
  EXPECT_TRUE(std::filesystem::exists(dir / kernelCacheName(optics, 0.0)));
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, SavingEmptySetThrows) {
  KernelSet empty;
  EXPECT_THROW(saveKernelSet("/tmp/should_not_matter.bin", empty),
               InvalidArgument);
}

TEST(KernelCache, SimulatorUsesTheDiskCache) {
  OpticsConfig optics;
  optics.pixelNm = 16;
  const auto dir = std::filesystem::temp_directory_path() / "mosaic_kcache";
  std::filesystem::create_directories(dir);
  const auto file = dir / kernelCacheName(optics, 0.0);
  std::filesystem::remove(file);

  LithoSimulator first(optics);
  first.setKernelCacheDir(dir.string());
  const KernelSet& computed = first.kernels(0.0);
  EXPECT_TRUE(std::filesystem::exists(file)) << "cache file not written";

  LithoSimulator second(optics);
  second.setKernelCacheDir(dir.string());
  const KernelSet& loaded = second.kernels(0.0);
  ASSERT_EQ(loaded.kernels.size(), computed.kernels.size());
  // Aerial images from computed vs loaded kernels must agree exactly.
  RealGrid mask(64, 64, 0.0);
  for (int r = 24; r < 40; ++r) {
    for (int c = 16; c < 48; ++c) mask(r, c) = 1.0;
  }
  const RealGrid a = first.aerial(mask, nominalCorner());
  const RealGrid b = second.aerial(mask, nominalCorner());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, CountsKernelSetsBuiltAndLoaded) {
  // litho.kernels.loaded counts cache-file hits; the litho.kernels.compute
  // span counts kernel sets built. warmKernels does a repeated focus once.
  OpticsConfig optics;
  optics.pixelNm = 16;
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_counts";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  telemetry::Counter& loaded =
      telemetry::metrics().counter("litho.kernels.loaded");
  telemetry::Histogram& computed =
      telemetry::metrics().histogram("litho.kernels.compute");
  const std::vector<double> foci{0.0, 25.0, 0.0};

  std::uint64_t loaded0 = loaded.value();
  std::uint64_t computed0 = computed.count();
  LithoSimulator first(optics);
  first.setKernelCacheDir(dir.string());
  first.warmKernels(foci);
  EXPECT_EQ(loaded.value() - loaded0, 0u);
  EXPECT_EQ(computed.count() - computed0, 2u);

  loaded0 = loaded.value();
  computed0 = computed.count();
  LithoSimulator second(optics);
  second.setKernelCacheDir(dir.string());
  second.warmKernels(foci);
  EXPECT_EQ(loaded.value() - loaded0, 2u);
  EXPECT_EQ(computed.count() - computed0, 0u);
  for (const double focus : {0.0, 25.0}) {
    EXPECT_EQ(second.kernels(focus).weights, first.kernels(focus).weights);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mosaic
