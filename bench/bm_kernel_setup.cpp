/// \file bm_kernel_setup.cpp
/// Cold kernel-setup benchmark (docs/performance.md). For each focus and
/// clip window it times the two halves of computeKernelSet separately --
/// the TCC build (buildTcc) and the top-k Hermitian eigensolve
/// (leadingEigenpairsHermitian, kernelCount + 8 pairs as the simulator
/// asks for) -- and reports the worst eigenpair residual
/// max_j ||T v_j - lambda_j v_j||_inf. The 1024 nm window is a contest
/// clip (161 pupil samples); 2048 nm is a chip-scale tile window (657).
/// Every config runs once per worker count in --threads (the TCC build
/// fans out over the pool; the eigensolve is serial), and the bench exits
/// non-zero when the TCC bytes differ between worker counts. Emits a
/// machine-stamped BENCH_kernels.json.
///
/// Run:  ./build/bench/bm_kernel_setup --threads 1,4 --json BENCH_kernels.json

#include <algorithm>
#include <complex>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "litho/tcc.hpp"
#include "machine_stamp.hpp"
#include "math/eigen.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace mosaic;

struct Row {
  int clipNm = 0;
  int latticeSize = 0;
  double focusNm = 0.0;
  int workers = 0;
  int pairs = 0;
  double buildS = 0.0;
  double solveS = 0.0;
  double residual = 0.0;
};

std::vector<int> parseThreads(const std::string& list) {
  std::vector<int> out;
  std::stringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    MOSAIC_CHECK(!token.empty() && token.find_first_not_of("0123456789") ==
                                       std::string::npos,
                 "--threads wants a comma-separated list of worker counts, "
                 "got '" << list << "'");
    out.push_back(std::stoi(token));
    MOSAIC_CHECK(out.back() >= 1, "worker counts must be >= 1");
  }
  MOSAIC_CHECK(!out.empty(), "--threads is empty");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::string threadList = "1,4";
  std::string jsonPath = "BENCH_kernels.json";

  CliParser cli("bm_kernel_setup",
                "cold SOCS kernel setup: TCC build vs eigensolve");
  cli.addInt("reps", &reps, "repetitions per config (minimum is reported)");
  cli.addString("threads", &threadList,
                "comma-separated worker counts to time each config at");
  cli.addString("json", &jsonPath, "output JSON path");
  try {
    if (!cli.parse(argc, argv)) return 0;
    MOSAIC_CHECK(reps > 0, "reps must be positive");
    const std::vector<int> threadCounts = parseThreads(threadList);

    std::vector<Row> rows;
    bool identical = true;
    for (const int clipNm : {1024, 2048}) {
      OpticsConfig optics;
      optics.clipSizeNm = clipNm;
      optics.pixelNm = clipNm / 256;  // the lattice depends on the clip only
      const auto lattice = pupilLattice(optics);
      const int n = static_cast<int>(lattice.size());
      const int dcSample = dcLatticeIndex(lattice);
      for (const double focus : {0.0, 25.0}) {
        std::vector<std::complex<double>> firstTcc;
        for (const int workers : threadCounts) {
          setParallelism(workers);
          Row row;
          row.clipNm = clipNm;
          row.latticeSize = n;
          row.focusNm = focus;
          row.workers = workers;
          row.pairs = std::min(n, optics.kernelCount + 8);
          std::vector<std::complex<double>> tcc;
          HermitianEigenResult eig;
          for (int r = 0; r < reps; ++r) {
            WallTimer build;
            tcc = buildTcc(optics, focus, lattice);
            const double buildS = build.seconds();
            WallTimer solve;
            eig = leadingEigenpairsHermitian(tcc, n, row.pairs, dcSample);
            const double solveS = solve.seconds();
            row.buildS = r == 0 ? buildS : std::min(row.buildS, buildS);
            row.solveS = r == 0 ? solveS : std::min(row.solveS, solveS);
          }
          if (firstTcc.empty()) {
            firstTcc = tcc;
          } else if (std::memcmp(firstTcc.data(), tcc.data(),
                                 tcc.size() * sizeof(tcc[0])) != 0) {
            identical = false;
            std::fprintf(stderr,
                         "bm_kernel_setup: TCC bytes at %d workers differ "
                         "from %d workers (clip %d nm, focus %g)\n",
                         workers, threadCounts.front(), clipNm, focus);
          }
          row.pairs = static_cast<int>(eig.eigenvalues.size());
          row.residual = maxEigenResidual(tcc, n, eig);
          rows.push_back(row);
          std::printf("clip %d nm (n=%d) focus %g, %d workers: build %.4f s, "
                      "solve %.4f s, residual %.2e\n",
                      clipNm, n, focus, workers, row.buildS, row.solveS,
                      row.residual);
          std::fflush(stdout);
        }
      }
    }
    setParallelism(0);

    TextTable table;
    table.setHeader({"clip nm", "n", "focus", "workers", "pairs",
                     "tcc build s", "eigensolve s", "max residual"});
    for (const Row& row : rows) {
      char residual[32];
      std::snprintf(residual, sizeof residual, "%.2e", row.residual);
      table.addRow({std::to_string(row.clipNm),
                    std::to_string(row.latticeSize),
                    TextTable::num(row.focusNm, 0),
                    std::to_string(row.workers), std::to_string(row.pairs),
                    TextTable::num(row.buildS, 4),
                    TextTable::num(row.solveS, 4), residual});
    }
    std::printf("\n== bm_kernel_setup: cold kernel setup per focus ==\n%s",
                table.render().c_str());

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_kernel_setup\",\n  \"machine\": %s,\n"
                 "  \"reps\": %d,\n  \"rows\": [\n",
                 bench::machineStampJson().c_str(), reps);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(json,
                   "    {\"clip_nm\": %d, \"lattice_size\": %d, "
                   "\"focus_nm\": %g, \"workers\": %d, \"eigenpairs\": %d, "
                   "\"tcc_build_s\": %.4f, \"eigensolve_s\": %.4f, "
                   "\"max_residual\": %.3e}%s\n",
                   row.clipNm, row.latticeSize, row.focusNm, row.workers,
                   row.pairs,
                   row.buildS, row.solveS, row.residual,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());
    if (!identical) {
      std::fprintf(stderr,
                   "bm_kernel_setup: TCC depends on the worker count\n");
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_kernel_setup: %s\n", e.what());
    return 1;
  }
  return 0;
}
