#include "math/fft.hpp"

#include <atomic>
#include <mutex>

#include "support/failpoint.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  MOSAIC_CHECK(isPowerOfTwo(n), "FFT size must be a power of two, got " << n);
  logN_ = 0;
  while ((std::size_t{1} << logN_) < n_) ++logN_;

  bitrev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t rev = 0;
    for (int b = 0; b < logN_; ++b) {
      rev = (rev << 1) | ((i >> b) & 1u);
    }
    bitrev_[i] = rev;
  }

  // Stage-packed twiddles: for half-length h the factors
  // exp(-i pi j / h), j in [0, h) are stored at twiddle_[h + j].
  twiddle_.assign(n_ == 1 ? 1 : n_, {1.0, 0.0});
  for (std::size_t h = 1; h < n_; h <<= 1) {
    const double theta = -3.14159265358979323846 / static_cast<double>(h);
    for (std::size_t j = 0; j < h; ++j) {
      const double a = theta * static_cast<double>(j);
      twiddle_[h + j] = {std::cos(a), std::sin(a)};
    }
  }
}

void FftPlan::transform(std::complex<double>* data, bool invert) const {
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Butterflies, two stages fused per sweep (radix-4 over the data):
  // intermediate values stay in registers instead of round-tripping
  // through memory between stages, and the inverse 1/n scaling is folded
  // into the final sweep. Inverse uses the conjugated twiddles.
  const double fullScale = invert ? 1.0 / static_cast<double>(n_) : 1.0;
  std::size_t h = 1;
  if (logN_ % 2 == 1) {
    // Odd stage count: open with one radix-2 sweep so the rest pairs up.
    const double s = (n_ == 2) ? fullScale : 1.0;
    for (std::size_t base = 0; base < n_; base += 2) {
      const std::complex<double> l = data[base];
      const std::complex<double> t = data[base + 1];
      data[base] = (l + t) * s;
      data[base + 1] = (l - t) * s;
    }
    h = 2;
  }
  for (; h < n_; h <<= 2) {
    // Fused stages (h, 2h): within a 4h block, elements (a, b, c, d) =
    // (j, j+h, j+2h, j+3h) combine with W1 = tw_h[j], W2 = tw_2h[j] and
    // W3 = tw_2h[j+h] = -i W2 (conjugated on inverse).
    const std::size_t len = h << 2;
    const double s = (len >= n_) ? fullScale : 1.0;
    const std::complex<double>* tw1 = &twiddle_[h];
    const std::complex<double>* tw2 = &twiddle_[h << 1];
    for (std::size_t base = 0; base < n_; base += len) {
      std::complex<double>* pa = data + base;
      std::complex<double>* pb = pa + h;
      std::complex<double>* pc = pb + h;
      std::complex<double>* pd = pc + h;
      for (std::size_t j = 0; j < h; ++j) {
        const std::complex<double> w1 = invert ? std::conj(tw1[j]) : tw1[j];
        const std::complex<double> w2c = tw2[j];
        const std::complex<double> w2 = invert ? std::conj(w2c) : w2c;
        const std::complex<double> w3 =
            invert ? std::complex<double>(w2c.imag(), w2c.real())
                   : std::complex<double>(w2c.imag(), -w2c.real());
        const std::complex<double> tb = pb[j] * w1;
        const std::complex<double> td = pd[j] * w1;
        const std::complex<double> a1 = pa[j] + tb;
        const std::complex<double> b1 = pa[j] - tb;
        const std::complex<double> c1 = pc[j] + td;
        const std::complex<double> d1 = pc[j] - td;
        const std::complex<double> t0 = c1 * w2;
        const std::complex<double> t1 = d1 * w3;
        pa[j] = (a1 + t0) * s;
        pc[j] = (a1 - t0) * s;
        pb[j] = (b1 + t1) * s;
        pd[j] = (b1 - t1) * s;
      }
    }
  }
}

void FftPlan::forward(std::complex<double>* data) const {
  transform(data, /*invert=*/false);
}

void FftPlan::inverse(std::complex<double>* data) const {
  transform(data, /*invert=*/true);
}

namespace {

/// Per-thread packed-row workspace for the real-input/real-output paths.
/// Reused across calls so the hot loop never allocates at steady state.
std::vector<std::complex<double>>& packedRowScratch() {
  thread_local std::vector<std::complex<double>> scratch;
  return scratch;
}

}  // namespace

Fft2d::Fft2d(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      rowPlan_(static_cast<std::size_t>(cols)),
      colPlan_(static_cast<std::size_t>(rows)) {
  MOSAIC_CHECK(rows > 0 && cols > 0, "FFT grid must be non-empty");
}

void Fft2d::transformRows(ComplexGrid& grid, bool invert) const {
  for (int r = 0; r < rows_; ++r) {
    std::complex<double>* row = grid.rowPtr(r);
    if (invert) {
      rowPlan_.inverse(row);
    } else {
      rowPlan_.forward(row);
    }
  }
}

void Fft2d::transformCols(ComplexGrid& grid, bool invert,
                          int colLimit) const {
  // Column transforms as row-vector butterflies: run the radix-2
  // algorithm over the row index, where each butterfly combines whole
  // rows element-wise. Every inner loop walks contiguous memory and
  // autovectorizes; there is no per-column gather/scatter and no scratch.
  // The pass is memory-bound at production sizes, so consecutive stage
  // pairs are fused (a radix-4 butterfly over four rows) to halve the
  // number of sweeps over the grid, and the inverse 1/rows scaling rides
  // along on the final sweep instead of paying its own. Columns are
  // independent, so restricting the element loops to [0, colLimit)
  // yields exactly the transforms of those columns (the real-input path
  // uses this to skip the redundant Hermitian half).
  const auto n = static_cast<std::size_t>(rows_);
  if (n == 1) return;
  const auto limit = static_cast<std::size_t>(colLimit) * 2;  // doubles
  auto rowp = [&](std::size_t r) {
    return reinterpret_cast<double*>(grid.rowPtr(static_cast<int>(r)));
  };

  const std::vector<std::size_t>& rev = colPlan_.bitReversal();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) {
      double* a = rowp(i);
      double* b = rowp(j);
      for (std::size_t c = 0; c < limit; ++c) std::swap(a[c], b[c]);
    }
  }

  const double fullScale = invert ? 1.0 / static_cast<double>(n) : 1.0;
  int stages = 0;
  for (std::size_t s = 1; s < n; s <<= 1) ++stages;
  std::size_t h = 1;
  // Odd stage count: open with one radix-2 sweep so the rest pairs up.
  if (stages % 2 == 1) {
    const double s = (n == 2) ? fullScale : 1.0;
    for (std::size_t base = 0; base < n; base += 2) {
      double* lo = rowp(base);
      double* hi = rowp(base + 1);
      for (std::size_t c = 0; c < limit; ++c) {
        const double l = lo[c];
        const double t = hi[c];
        lo[c] = (l + t) * s;
        hi[c] = (l - t) * s;
      }
    }
    h = 2;
  }

  for (; h < n; h <<= 2) {
    // Fused stages (h, 2h): a 4-row butterfly. Within a 4h block, rows
    // (a, b, c, d) = (j, j+h, j+2h, j+3h) combine with W1 = tw_h[j],
    // W2 = tw_2h[j] and W3 = tw_2h[j+h] = -i W2 (conjugated on inverse).
    const std::size_t len = h << 2;
    const bool lastPass = (len >= n);
    const double s = lastPass ? fullScale : 1.0;
    const std::complex<double>* tw1 = colPlan_.stageTwiddles(h);
    const std::complex<double>* tw2 = colPlan_.stageTwiddles(h << 1);
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < h; ++j) {
        const double c2r = tw2[j].real();
        const double c2i = tw2[j].imag();
        double w1r = tw1[j].real(), w1i = tw1[j].imag();
        double w2r = c2r, w2i = c2i;
        double w3r = c2i, w3i = -c2r;  // W3 = -i W2
        if (invert) {
          w1i = -w1i;
          w2i = -w2i;
          w3i = c2r;  // conj(-i W2) = i conj(W2) = (c2i, c2r)
        }
        double* pa = rowp(base + j);
        double* pb = rowp(base + j + h);
        double* pc = rowp(base + j + 2 * h);
        double* pd = rowp(base + j + 3 * h);
        for (std::size_t c = 0; c < limit; c += 2) {
          const double ar = pa[c], ai = pa[c + 1];
          const double br = pb[c], bi = pb[c + 1];
          const double cr = pc[c], ci = pc[c + 1];
          const double dr = pd[c], di = pd[c + 1];
          // Stage h: (a,b) and (c,d) with W1.
          const double tbr = br * w1r - bi * w1i;
          const double tbi = br * w1i + bi * w1r;
          const double tdr = dr * w1r - di * w1i;
          const double tdi = dr * w1i + di * w1r;
          const double a1r = ar + tbr, a1i = ai + tbi;
          const double b1r = ar - tbr, b1i = ai - tbi;
          const double c1r = cr + tdr, c1i = ci + tdi;
          const double d1r = cr - tdr, d1i = ci - tdi;
          // Stage 2h: (a1,c1) with W2, (b1,d1) with W3.
          const double t0r = c1r * w2r - c1i * w2i;
          const double t0i = c1r * w2i + c1i * w2r;
          const double t1r = d1r * w3r - d1i * w3i;
          const double t1i = d1r * w3i + d1i * w3r;
          pa[c] = (a1r + t0r) * s;
          pa[c + 1] = (a1i + t0i) * s;
          pc[c] = (a1r - t0r) * s;
          pc[c + 1] = (a1i - t0i) * s;
          pb[c] = (b1r + t1r) * s;
          pb[c + 1] = (b1i + t1i) * s;
          pd[c] = (b1r - t1r) * s;
          pd[c + 1] = (b1i - t1i) * s;
        }
      }
    }
  }
}

void Fft2d::forward(ComplexGrid& grid) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape " << grid.rows() << "x" << grid.cols()
                             << " does not match plan " << rows_ << "x"
                             << cols_);
  MOSAIC_FAILPOINT_DATA("fft.forward",
                        reinterpret_cast<double*>(grid.data()),
                        grid.size() * 2);
  MOSAIC_SPAN("fft.forward");
  transformRows(grid, false);
  transformCols(grid, false, cols_);
}

void Fft2d::inverse(ComplexGrid& grid) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape mismatch in inverse FFT");
  MOSAIC_SPAN("fft.inverse");
  transformRows(grid, true);
  transformCols(grid, true, cols_);
}

ComplexGrid Fft2d::forwardReal(const RealGrid& grid) const {
  ComplexGrid out(rows_, cols_);
  forwardRealInto(grid, out);
  return out;
}

void Fft2d::forwardRealInto(const RealGrid& grid, ComplexGrid& out) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape mismatch in real forward FFT");
  MOSAIC_CHECK(out.rows() == rows_ && out.cols() == cols_,
               "output shape mismatch in real forward FFT");
  if (rows_ < 2 || cols_ < 2) {
    for (std::size_t i = 0; i < grid.size(); ++i) out.data()[i] = grid.data()[i];
    forward(out);
    return;
  }
  MOSAIC_SPAN("fft.forward_real");

  // Row pass: pack two real rows a, b as z = a + i b, transform once, and
  // split using conj-symmetry: A[k] = (Z[k] + conj(Z[n-k]))/2,
  // B[k] = (Z[k] - conj(Z[n-k]))/(2i).
  const int half = cols_ / 2;
  std::vector<std::complex<double>>& packed = packedRowScratch();
  packed.resize(static_cast<std::size_t>(cols_));
  for (int r = 0; r < rows_; r += 2) {
    const double* a = grid.rowPtr(r);
    const double* b = grid.rowPtr(r + 1);
    for (int c = 0; c < cols_; ++c) {
      packed[static_cast<std::size_t>(c)] = {a[c], b[c]};
    }
    rowPlan_.forward(packed.data());
    std::complex<double>* ra = out.rowPtr(r);
    std::complex<double>* rb = out.rowPtr(r + 1);
    ra[0] = {packed[0].real(), 0.0};
    rb[0] = {packed[0].imag(), 0.0};
    for (int k = 1; k < cols_; ++k) {
      const std::complex<double> z = packed[static_cast<std::size_t>(k)];
      const std::complex<double> zc =
          std::conj(packed[static_cast<std::size_t>(cols_ - k)]);
      ra[k] = 0.5 * (z + zc);
      const std::complex<double> d = z - zc;  // = 2i B[k]
      rb[k] = {0.5 * d.imag(), -0.5 * d.real()};
    }
  }

  // Column pass only over the non-redundant half [0, cols/2]; the rest
  // follows from Hermitian symmetry X(r, c) = conj(X(-r mod R, -c mod C)).
  transformCols(out, false, half + 1);
  for (int r = 0; r < rows_; ++r) {
    const int mr = (rows_ - r) % rows_;
    const std::complex<double>* src = out.rowPtr(mr);
    std::complex<double>* dst = out.rowPtr(r);
    for (int c = half + 1; c < cols_; ++c) {
      dst[c] = std::conj(src[cols_ - c]);
    }
  }
}

void Fft2d::inverseRealInto(ComplexGrid& spectrum, RealGrid& out) const {
  MOSAIC_CHECK(spectrum.rows() == rows_ && spectrum.cols() == cols_,
               "spectrum shape mismatch in real inverse FFT");
  MOSAIC_CHECK(out.rows() == rows_ && out.cols() == cols_,
               "output shape mismatch in real inverse FFT");
  if (rows_ < 2 || cols_ < 2) {
    inverse(spectrum);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] = spectrum.data()[i].real();
    }
    return;
  }
  MOSAIC_SPAN("fft.inverse_real");

  // Inverse column pass over the stored half; after it, every row is a
  // 1-D Hermitian spectrum (Y(r, c) = conj(Y(r, C - c))), which lets the
  // row pass reconstruct its upper half locally and invert two real-output
  // rows per complex transform: z = ifft(Y0 + i Y1) has row0 = Re z,
  // row1 = Im z.
  const int half = cols_ / 2;
  transformCols(spectrum, true, half + 1);
  std::vector<std::complex<double>>& packed = packedRowScratch();
  packed.resize(static_cast<std::size_t>(cols_));
  for (int r = 0; r < rows_; r += 2) {
    const std::complex<double>* ya = spectrum.rowPtr(r);
    const std::complex<double>* yb = spectrum.rowPtr(r + 1);
    for (int k = 0; k <= half; ++k) {
      const std::complex<double> a = ya[k];
      const std::complex<double> b = yb[k];
      packed[static_cast<std::size_t>(k)] = {a.real() - b.imag(),
                                             a.imag() + b.real()};
    }
    for (int k = half + 1; k < cols_; ++k) {
      const std::complex<double> a = std::conj(ya[cols_ - k]);
      const std::complex<double> b = std::conj(yb[cols_ - k]);
      packed[static_cast<std::size_t>(k)] = {a.real() - b.imag(),
                                             a.imag() + b.real()};
    }
    rowPlan_.inverse(packed.data());
    double* oa = out.rowPtr(r);
    double* ob = out.rowPtr(r + 1);
    for (int c = 0; c < cols_; ++c) {
      oa[c] = packed[static_cast<std::size_t>(c)].real();
      ob[c] = packed[static_cast<std::size_t>(c)].imag();
    }
  }
}

void Fft2d::inverseRealPartInto(ComplexGrid& spectrum, RealGrid& out) const {
  MOSAIC_CHECK(spectrum.rows() == rows_ && spectrum.cols() == cols_,
               "spectrum shape mismatch in real-part inverse FFT");
  // Below 2 x 2 inverseRealInto runs the complex inverse and keeps the
  // real part, which needs no fold.
  if (rows_ >= 2 && cols_ >= 2) {
    // Columns (0, cols/2) pair with columns (cols/2, cols), which are
    // only read; columns 0 and cols/2 pair with themselves (row r with
    // row -r), so both ends of each pair are written together.
    const int half = cols_ / 2;
    for (int r = 0; r < rows_; ++r) {
      const std::complex<double>* mirror = spectrum.rowPtr((rows_ - r) % rows_);
      std::complex<double>* row = spectrum.rowPtr(r);
      for (int c = 1; c < half; ++c) {
        row[c] = 0.5 * (row[c] + std::conj(mirror[cols_ - c]));
      }
    }
    for (const int c : {0, half}) {
      for (int r = 0; r <= rows_ / 2; ++r) {
        const int mr = (rows_ - r) % rows_;
        const std::complex<double> a = spectrum(r, c);
        const std::complex<double> b = spectrum(mr, c);
        spectrum(r, c) = 0.5 * (a + std::conj(b));
        spectrum(mr, c) = 0.5 * (b + std::conj(a));
      }
    }
  }
  inverseRealInto(spectrum, out);
}

namespace {

/// Append-only plan list: readers walk it lock-free, inserts take the
/// mutex and publish with a release store. Nodes are never freed (plans
/// live for the process lifetime, and the set of distinct shapes is tiny).
struct PlanNode {
  int rows;
  int cols;
  Fft2d plan;
  PlanNode* next;
};

std::atomic<PlanNode*> gPlanList{nullptr};
std::mutex gPlanInsertMutex;

const Fft2d* findPlan(PlanNode* head, int rows, int cols) {
  for (PlanNode* n = head; n != nullptr; n = n->next) {
    if (n->rows == rows && n->cols == cols) return &n->plan;
  }
  return nullptr;
}

}  // namespace

const Fft2d& fft2dFor(int rows, int cols) {
  if (const Fft2d* plan =
          findPlan(gPlanList.load(std::memory_order_acquire), rows, cols)) {
    return *plan;
  }
  std::lock_guard<std::mutex> lock(gPlanInsertMutex);
  PlanNode* head = gPlanList.load(std::memory_order_relaxed);
  if (const Fft2d* plan = findPlan(head, rows, cols)) return *plan;
  auto* node = new PlanNode{rows, cols, Fft2d(rows, cols), head};
  gPlanList.store(node, std::memory_order_release);
  return node->plan;
}

}  // namespace mosaic
