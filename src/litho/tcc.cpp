#include "litho/tcc.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "litho/pupil.hpp"
#include "math/eigen.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

namespace {

constexpr std::size_t kEdge = kTccTileEdge;
static_assert(kEdge <= 32, "one nonzero bit per sample of a block row");

/// The pupil matrix P(s + f_p) in column blocks of kEdge lattice samples:
/// block b holds samples [b kEdge, (b + 1) kEdge) of every source row,
/// row after row, so a tile reads two contiguous streams. Real and
/// imaginary parts sit in separate planes of one allocation, and `nonzero`
/// holds one bit per sample of each (block, source) row.
struct PupilBlocks {
  std::size_t sources = 0;
  std::size_t blockCount = 0;
  std::vector<double> planes;          ///< real plane, then imaginary plane
  std::vector<std::uint32_t> nonzero;  ///< [block][source] sample bits

  PupilBlocks(std::size_t sourceCount, std::size_t latticeSize)
      : sources(sourceCount),
        blockCount((latticeSize + kEdge - 1) / kEdge),
        planes(2 * sourceCount * blockCount * kEdge, 0.0),
        nonzero(blockCount * sourceCount, 0u) {}

  /// Store P(s + f_p). Calls for distinct sources may run concurrently.
  void set(std::size_t s, std::size_t p, std::complex<double> value) {
    const std::size_t at = ((p / kEdge) * sources + s) * kEdge + p % kEdge;
    planes[at] = value.real();
    planes[at + planes.size() / 2] = value.imag();
    if (value != std::complex<double>{0.0, 0.0}) {
      nonzero[(p / kEdge) * sources + s] |= 1u << (p % kEdge);
    }
  }
  [[nodiscard]] const double* re(std::size_t block) const {
    return planes.data() + block * sources * kEdge;
  }
  [[nodiscard]] const double* im(std::size_t block) const {
    return re(block) + planes.size() / 2;
  }
  [[nodiscard]] const std::uint32_t* bits(std::size_t block) const {
    return nonzero.data() + block * sources;
  }
};

/// acc[j] += (ar + i ai) * conj(c[j]) over one tile row, spelled out as
/// the complex product rounds: no FMA and no reassociation, so each entry
/// matches a serial std::complex loop bit for bit. Lanes are independent
/// entries, so the loop vectorizes without changing a result.
inline void addConjugateProducts(double ar, double ai,
                                 const double* __restrict cRe,
                                 const double* __restrict cIm,
                                 double* __restrict accRe,
                                 double* __restrict accIm) {
  for (std::size_t j = 0; j < kEdge; ++j) {
    accRe[j] += ar * cRe[j] + ai * cIm[j];
    accIm[j] += ai * cRe[j] - ar * cIm[j];
  }
}

/// Accumulate the tile of p block `bp` and q block `bq` over every source
/// in order. A term with P(s + f_p) == 0 or P(s + f_q) == 0 is +-0, and
/// adding +-0 leaves an accumulator that starts at +0 bit-identical, so
/// those terms are skipped.
void accumulateTile(const PupilBlocks& pupil, std::size_t bp, std::size_t bq,
                    double (&accRe)[kEdge][kEdge],
                    double (&accIm)[kEdge][kEdge]) {
  const double* pRe = pupil.re(bp);
  const double* pIm = pupil.im(bp);
  const double* qRe = pupil.re(bq);
  const double* qIm = pupil.im(bq);
  const std::uint32_t* pBits = pupil.bits(bp);
  const std::uint32_t* qBits = pupil.bits(bq);
  for (std::size_t s = 0; s < pupil.sources; ++s) {
    std::uint32_t rows = qBits[s] != 0 ? pBits[s] : 0u;
    while (rows != 0) {
      const int i = std::countr_zero(rows);
      rows &= rows - 1;
      addConjugateProducts(pRe[i], pIm[i], qRe, qIm, accRe[i], accIm[i]);
    }
    pRe += kEdge;
    pIm += kEdge;
    qRe += kEdge;
    qIm += kEdge;
  }
}

}  // namespace

std::vector<PupilSample> pupilLattice(const OpticsConfig& optics) {
  optics.validate();
  const int n = optics.gridSize();
  const double df = optics.freqStep();
  const double cutoff = optics.cutoffFreq();
  std::vector<PupilSample> lattice;
  // Signed index range covering the cutoff circle.
  const int maxIdx = static_cast<int>(std::floor(cutoff / df));
  for (int si = -maxIdx; si <= maxIdx; ++si) {
    for (int sj = -maxIdx; sj <= maxIdx; ++sj) {
      const double fy = si * df;
      const double fx = sj * df;
      if (fx * fx + fy * fy > cutoff * cutoff) continue;
      PupilSample sample;
      sample.row = (si % n + n) % n;
      sample.col = (sj % n + n) % n;
      sample.fx = fx;
      sample.fy = fy;
      lattice.push_back(sample);
    }
  }
  MOSAIC_CHECK(!lattice.empty(), "pupil lattice is empty -- clip too small?");
  return lattice;
}

std::vector<std::complex<double>> buildTcc(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice) {
  const Pupil pupil(optics, focusNm);
  const double df = optics.freqStep();
  const double cutoff = optics.cutoffFreq();
  const double srcStep = df / optics.sourceOversample;
  const double srcInner = optics.sigmaInner * cutoff;
  const double srcOuter = optics.sigmaOuter * cutoff;

  // Enumerate uniform annular source points on the refined lattice.
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
  MOSAIC_CHECK(!source.empty(), "source sampling produced no points");

  const std::size_t n = lattice.size();
  // Rows fill in parallel; each value depends on its (s, p) alone.
  PupilBlocks blocks(source.size(), n);
  parallelFor(0, source.size(), [&](std::size_t s) {
    for (std::size_t p = 0; p < n; ++p) {
      blocks.set(s, p,
                 pupil.value(source[s].first + lattice[p].fx,
                             source[s].second + lattice[p].fy));
    }
  });

  // T(p, q) for q >= p, one task per square tile of the upper triangle.
  // A tile keeps its accumulators in L1 and walks the sources in order,
  // so every entry receives the terms of a serial rank-one loop in the
  // same order, whatever the worker count. Entries below the diagonal or
  // past the lattice are accumulated too and then dropped.
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  for (std::size_t bp = 0; bp < blocks.blockCount; ++bp) {
    for (std::size_t bq = bp; bq < blocks.blockCount; ++bq) {
      tiles.emplace_back(bp, bq);
    }
  }
  std::vector<std::complex<double>> tcc(n * n, {0.0, 0.0});
  const double norm = 1.0 / static_cast<double>(source.size());
  parallelFor(0, tiles.size(), [&](std::size_t t) {
    const auto [bp, bq] = tiles[t];
    alignas(64) double accRe[kEdge][kEdge] = {};
    alignas(64) double accIm[kEdge][kEdge] = {};
    accumulateTile(blocks, bp, bq, accRe, accIm);
    // Normalize and fill the mirrored lower-triangle entries.
    const std::size_t p0 = bp * kEdge;
    const std::size_t q0 = bq * kEdge;
    for (std::size_t p = p0; p < std::min(n, p0 + kEdge); ++p) {
      for (std::size_t q = std::max(p, q0); q < std::min(n, q0 + kEdge);
           ++q) {
        std::complex<double> upper{accRe[p - p0][q - q0],
                                   accIm[p - p0][q - q0]};
        upper *= norm;
        tcc[p * n + q] = upper;
        tcc[q * n + p] = std::conj(upper);
      }
    }
  });
  return tcc;
}

int dcLatticeIndex(const std::vector<PupilSample>& lattice) {
  for (std::size_t p = 0; p < lattice.size(); ++p) {
    if (lattice[p].row == 0 && lattice[p].col == 0) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

KernelSet computeKernelSet(const OpticsConfig& optics, double focusNm) {
  const auto lattice = pupilLattice(optics);
  const int n = static_cast<int>(lattice.size());
  LOG_DEBUG("TCC lattice has " << n << " pupil samples (focus " << focusNm
                               << " nm)");
  std::vector<std::complex<double>> tcc;
  {
    MOSAIC_SPAN("litho.tcc.build");
    tcc = buildTcc(optics, focusNm, lattice);
  }
  // The DC sample anchors each kernel's phase, which the combined kernel
  // (a weighted sum of kernels) depends on. Eight eigenpairs beyond the
  // requested count let the truncation below extend through a degenerate
  // cluster; the lattice's 4-fold symmetry only produces pairs.
  HermitianEigenResult eig;
  {
    MOSAIC_SPAN("litho.tcc.eigensolve");
    eig = leadingEigenpairsHermitian(tcc, n,
                                     std::min(n, optics.kernelCount + 8),
                                     dcLatticeIndex(lattice));
  }
  const int requested = std::min(optics.kernelCount, n);
  const int keep = clusterSafeCount(eig.eigenvalues, requested);
  if (keep != requested) {
    LOG_INFO("kernel count " << requested << " splits a degenerate TCC "
                             << "eigenvalue cluster at focus " << focusNm
                             << " nm; keeping " << keep << " kernels");
  }

  KernelSet set;
  set.gridSize = optics.gridSize();
  set.focusNm = focusNm;
  for (int k = 0; k < keep; ++k) {
    const double w = eig.eigenvalues[static_cast<std::size_t>(k)];
    if (w <= 0.0) break;  // TCC is PSD; numerical negatives mark the tail
    SparseSpectrum spec;
    spec.gridSize = set.gridSize;
    spec.flatIndex.reserve(static_cast<std::size_t>(n));
    spec.value.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      spec.flatIndex.push_back(lattice[static_cast<std::size_t>(p)].row *
                                   set.gridSize +
                               lattice[static_cast<std::size_t>(p)].col);
      spec.value.push_back(
          eig.eigenvectors[static_cast<std::size_t>(k)]
                          [static_cast<std::size_t>(p)]);
    }
    set.weights.push_back(w);
    set.kernels.push_back(std::move(spec));
  }
  MOSAIC_CHECK(!set.kernels.empty(), "TCC decomposition yielded no kernels");

  // Normalize weights so the open-frame intensity is 1: with M == 1 the
  // field of kernel k is its DC sample, so I_open = sum_k w_k |h_k(0)|^2.
  double openFrame = 0.0;
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    openFrame += set.weights[k] * std::norm(set.kernels[k].dcValue());
  }
  MOSAIC_CHECK(openFrame > 1e-12,
               "open-frame intensity vanished -- degenerate kernel set");
  for (auto& w : set.weights) w /= openFrame;

  set.combined = combinedKernel(set);

  LOG_DEBUG("kernel set ready: " << set.kernels.size() << " kernels, top "
                                 << "weight " << set.weights.front());
  return set;
}

SparseSpectrum combinedKernel(const KernelSet& set) {
  MOSAIC_CHECK(!set.kernels.empty(), "kernel set is empty");
  // Eq. 21 leaves each kernel's unit coefficient c_k open, and the fast
  // gradient depends on it through the cross terms w_j w_k that the
  // rank-one H H^H adds. A kernel outside a degenerate cluster keeps its
  // canonical phase (c_k = 1). Inside a cluster -- the lattice's x/y
  // partner pairs -- the in-phase sum u_1 + u_2 would point the pair's
  // share along one diagonal of its basis; partners in quadrature give a
  // share that a real rotation of the basis changes only by a phase. So
  // the m-th canonical vector of a cluster gets c = -(-i)^m: a pair enters
  // as i u_2 - u_1. The phase and handedness are a convention
  // (docs/ALGORITHMS.md).
  SparseSpectrum combined;
  combined.gridSize = set.gridSize;
  combined.flatIndex = set.kernels.front().flatIndex;
  combined.value.assign(combined.flatIndex.size(), {0.0, 0.0});
  const int count = set.kernelCount();
  int clusterStart = 0;
  int clusterEnd = 0;
  std::complex<double> coefficient{1.0, 0.0};
  for (int k = 0; k < count; ++k) {
    if (k == clusterEnd) {
      clusterStart = k;
      clusterEnd = clusterSafeCount(set.weights, k + 1);
      coefficient = clusterEnd - clusterStart > 1
                        ? std::complex<double>(-1.0, 0.0)
                        : std::complex<double>(1.0, 0.0);
    } else {
      coefficient *= std::complex<double>(0.0, -1.0);
    }
    const std::complex<double> scale =
        set.weights[static_cast<std::size_t>(k)] * coefficient;
    const auto& value = set.kernels[static_cast<std::size_t>(k)].value;
    for (std::size_t i = 0; i < combined.value.size(); ++i) {
      combined.value[i] += scale * value[i];
    }
  }
  // Rescale so the combined kernel's own open-frame field has unit
  // magnitude, keeping gradient magnitudes on the scale of the intensity.
  const double dcMag = std::abs(combined.dcValue());
  MOSAIC_CHECK(dcMag > 1e-12, "combined kernel has no DC response");
  for (auto& v : combined.value) v /= dcMag;
  return combined;
}

}  // namespace mosaic
