#include "math/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

namespace mosaic {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
/// Inverse-iteration sweeps per eigenvector. The shifts come from implicit
/// QL, accurate to a few ulps of ||T||, so each sweep shrinks every
/// component outside the target eigenspace by ~eps * ||T|| / gap; three
/// sweeps reach working precision even for gaps near sqrt(eps) * ||T||.
constexpr int kInverseIterations = 3;
/// Relative band within which phase-pivot candidates count as tied.
constexpr double kTieTol = 1e-9;

/// H = Q T Q^H with T Hermitian tridiagonal and Q = P_0 P_1 ... P_{n-3}.
/// Reflector P_j = I - beta_j u_j u_j^H acts on indices j+1..n-1; u_j sits
/// in row j of (ur, ui), zero elsewhere. beta_j == 0 marks a column that
/// was already reduced.
struct Tridiagonal {
  std::vector<double> diag;                // T(i, i), n
  std::vector<std::complex<double>> sub;   // T(i+1, i), n-1
  std::vector<double> ur, ui;              // n x n
  std::vector<double> beta;                // n
};

/// Householder reduction on the lower triangle of h, held as separate real
/// and imaginary planes so the O(n^3) loops are plain vectorizable FMAs.
Tridiagonal tridiagonalize(const std::vector<std::complex<double>>& h, int n) {
  const auto at = [n](int r, int c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(c);
  };
  std::vector<double> re(at(n, 0)), im(at(n, 0));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c <= r; ++c) {
      re[at(r, c)] = h[at(r, c)].real();
      im[at(r, c)] = h[at(r, c)].imag();
    }
  }
  Tridiagonal t;
  t.diag.assign(static_cast<std::size_t>(n), 0.0);
  t.sub.assign(static_cast<std::size_t>(std::max(n - 1, 0)), {});
  t.ur.assign(at(n, 0), 0.0);
  t.ui.assign(at(n, 0), 0.0);
  t.beta.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double> pr(static_cast<std::size_t>(n));
  std::vector<double> pi(static_cast<std::size_t>(n));

  for (int j = 0; j + 2 < n; ++j) {
    t.diag[j] = re[at(j, j)];
    double* vr = &t.ur[at(j, 0)];
    double* vi = &t.ui[at(j, 0)];
    double tail = 0.0;
    for (int r = j + 2; r < n; ++r) {
      vr[r] = re[at(r, j)];
      vi[r] = im[at(r, j)];
      tail += vr[r] * vr[r] + vi[r] * vi[r];
    }
    const double x0r = re[at(j + 1, j)];
    const double x0i = im[at(j + 1, j)];
    if (tail == 0.0) {  // column already reduced: beta_j stays 0
      t.sub[j] = {x0r, x0i};
      continue;
    }
    // u = x - alpha e_1 with alpha = -(x_0 / |x_0|) ||x||, so P x = alpha e_1
    // without cancellation, and beta = 2 / ||u||^2
    //                                = 1 / (||x|| (||x|| + |x_0|)).
    const double x0abs = std::hypot(x0r, x0i);
    const double xnorm = std::sqrt(x0abs * x0abs + tail);
    const double phaseR = x0abs > 0.0 ? x0r / x0abs : 1.0;
    const double phaseI = x0abs > 0.0 ? x0i / x0abs : 0.0;
    const double alphaR = -phaseR * xnorm;
    const double alphaI = -phaseI * xnorm;
    vr[j + 1] = x0r - alphaR;
    vi[j + 1] = x0i - alphaI;
    const double beta = 1.0 / (xnorm * (xnorm + x0abs));
    t.beta[j] = beta;
    t.sub[j] = {alphaR, alphaI};

    // p = beta B u over the trailing block B, read from its lower triangle:
    // entry (r, c < r) feeds p_r through B(r, c) and p_c through conj.
    for (int r = j + 1; r < n; ++r) pr[r] = pi[r] = 0.0;
    for (int r = j + 1; r < n; ++r) {
      const double* rowR = &re[at(r, 0)];
      const double* rowI = &im[at(r, 0)];
      const double uR = vr[r];
      const double uI = vi[r];
      double accR = rowR[r] * uR;
      double accI = rowR[r] * uI;
      for (int c = j + 1; c < r; ++c) {
        accR += rowR[c] * vr[c] - rowI[c] * vi[c];
        accI += rowR[c] * vi[c] + rowI[c] * vr[c];
        pr[c] += rowR[c] * uR + rowI[c] * uI;
        pi[c] += rowR[c] * uI - rowI[c] * uR;
      }
      pr[r] += accR;
      pi[r] += accI;
    }
    // q = p - (beta / 2)(u^H p) u, then B <- P B P = B - u q^H - q u^H.
    double uhp = 0.0;
    for (int r = j + 1; r < n; ++r) {
      pr[r] *= beta;
      pi[r] *= beta;
      uhp += vr[r] * pr[r] + vi[r] * pi[r];
    }
    const double half = 0.5 * beta * uhp;
    for (int r = j + 1; r < n; ++r) {
      pr[r] -= half * vr[r];
      pi[r] -= half * vi[r];
    }
    for (int r = j + 1; r < n; ++r) {
      double* rowR = &re[at(r, 0)];
      double* rowI = &im[at(r, 0)];
      const double uR = vr[r];
      const double uI = vi[r];
      const double qR = pr[r];
      const double qI = pi[r];
      for (int c = j + 1; c <= r; ++c) {
        rowR[c] -= uR * pr[c] + uI * pi[c] + qR * vr[c] + qI * vi[c];
        rowI[c] -= uI * pr[c] - uR * pi[c] + qI * vr[c] - qR * vi[c];
      }
    }
  }
  if (n >= 2) {
    t.diag[n - 2] = re[at(n - 2, n - 2)];
    t.sub[n - 2] = {re[at(n - 1, n - 2)], im[at(n - 1, n - 2)]};
  }
  t.diag[n - 1] = re[at(n - 1, n - 1)];
  return t;
}

/// Every eigenvalue of the real symmetric tridiagonal (d, e) by implicit
/// QL without vectors (tql1); e[i] couples i and i+1. Sorted descending.
std::vector<double> tridiagonalEigenvalues(std::vector<double> d,
                                           std::vector<double> e) {
  const int n = static_cast<int>(d.size());
  e.resize(d.size(), 0.0);
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < n - 1; ++m) {
        if (std::fabs(e[m]) <= kEps * (std::fabs(d[m]) + std::fabs(d[m + 1]))) {
          break;
        }
      }
      if (m == l) break;
      MOSAIC_CHECK(++iter <= 60, "implicit QL did not converge");
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      int i = m - 1;
      for (; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {  // underflow: deflate and restart this block
          d[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
      }
      if (r == 0.0 && i >= l) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
  }
  std::sort(d.begin(), d.end(), std::greater<>());
  return d;
}

/// Unit eigenvectors of the real symmetric tridiagonal (d, e) for the
/// descending eigenvalues `lambda`, by inverse iteration with partial-
/// pivoting LU. Eigenvalues closer than 1e-3 ||T|| to their predecessor
/// form one cluster; each vector is Gram-Schmidt orthogonalized against
/// the earlier vectors of its cluster after every solve, and exactly equal
/// shifts are nudged apart by 10 eps ||T||.
std::vector<std::vector<double>> tridiagonalEigenvectors(
    const std::vector<double>& d, const std::vector<double>& e,
    const std::vector<double>& lambda) {
  const int n = static_cast<int>(d.size());
  double norm = 0.0;
  for (int i = 0; i < n; ++i) {
    const double left = i > 0 ? std::fabs(e[i - 1]) : 0.0;
    const double right = i + 1 < n ? std::fabs(e[i]) : 0.0;
    norm = std::max(norm, std::fabs(d[i]) + left + right);
  }
  if (norm == 0.0) norm = 1.0;
  const double clusterTol = 1e-3 * norm;
  const double shiftSeparation = 10.0 * kEps * norm;
  const double tinyPivot = kEps * norm;

  std::vector<double> u0(static_cast<std::size_t>(n));
  std::vector<double> u1(static_cast<std::size_t>(n));
  std::vector<double> u2(static_cast<std::size_t>(n));
  std::vector<double> mult(static_cast<std::size_t>(n));
  std::vector<char> swapped(static_cast<std::size_t>(n));
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  std::vector<std::vector<double>> vecs(lambda.size());
  std::size_t clusterStart = 0;
  double shift = 0.0;
  for (std::size_t j = 0; j < lambda.size(); ++j) {
    if (j > 0 && lambda[j - 1] - lambda[j] > clusterTol) clusterStart = j;
    const double previous = shift;
    shift = lambda[j];
    if (j > 0 && previous - shift < shiftSeparation) {
      shift = previous - shiftSeparation;
    }

    // T - shift I = P L U; U keeps two superdiagonals, L one multiplier
    // per row, and the working row carries (w0, w1) at columns (i, i+1).
    double w0 = d[0] - shift;
    double w1 = n > 1 ? e[0] : 0.0;
    for (int i = 0; i + 1 < n; ++i) {
      const double below = e[i];
      const double a1 = d[i + 1] - shift;
      const double c1 = (i + 2 < n) ? e[i + 1] : 0.0;
      if (std::fabs(below) > std::fabs(w0)) {
        swapped[i] = 1;
        mult[i] = w0 / below;
        u0[i] = below;
        u1[i] = a1;
        u2[i] = c1;
        w0 = w1 - mult[i] * a1;
        w1 = -mult[i] * c1;
      } else {
        swapped[i] = 0;
        if (w0 == 0.0) w0 = tinyPivot;
        mult[i] = below / w0;
        u0[i] = w0;
        u1[i] = w1;
        u2[i] = 0.0;
        w0 = a1 - mult[i] * w1;
        w1 = c1;
      }
    }
    u0[n - 1] = (w0 == 0.0) ? tinyPivot : w0;

    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(seed >> 11) * 0x1p-52 - 1.0;
    }
    for (int sweep = 0; sweep < kInverseIterations; ++sweep) {
      for (int i = 0; i + 1 < n; ++i) {
        if (swapped[i]) std::swap(x[i], x[i + 1]);
        x[i + 1] -= mult[i] * x[i];
      }
      x[n - 1] /= u0[n - 1];
      if (n > 1) x[n - 2] = (x[n - 2] - u1[n - 2] * x[n - 1]) / u0[n - 2];
      for (int i = n - 3; i >= 0; --i) {
        x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i];
      }
      for (std::size_t p = clusterStart; p < j; ++p) {
        double dot = 0.0;
        for (int i = 0; i < n; ++i) dot += vecs[p][i] * x[i];
        for (int i = 0; i < n; ++i) x[i] -= dot * vecs[p][i];
      }
      double len = 0.0;
      for (const double v : x) len += v * v;
      len = std::sqrt(len);
      MOSAIC_CHECK(len > 0.0, "inverse iteration lost its start vector");
      for (double& v : x) v /= len;
    }
    vecs[j] = std::move(x);
  }
  return vecs;
}

}  // namespace

HermitianEigenResult leadingEigenpairsHermitian(
    const std::vector<std::complex<double>>& h, int n, int k,
    int phaseAnchor) {
  MOSAIC_CHECK(n > 0, "matrix dimension must be positive");
  MOSAIC_CHECK(h.size() == static_cast<std::size_t>(n) * n,
               "matrix storage size mismatch");
  MOSAIC_CHECK(k >= 1 && k <= n, "requested eigenpair count out of range");
  MOSAIC_CHECK(phaseAnchor < n, "phase anchor outside the matrix");
  const auto at = [&](int r, int c) {
    return h[static_cast<std::size_t>(r) * n + c];
  };
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      MOSAIC_CHECK(std::abs(at(r, c) - std::conj(at(c, r))) <= 1e-9,
                   "matrix is not Hermitian at (" << r << "," << c << ")");
    }
  }

  const Tridiagonal t = tridiagonalize(h, n);
  // T = D T' D^H with D = diag(phi) unitary and T' real: phi_{i+1} carries
  // the phase of T(i+1, i) so T'(i+1, i) = |T(i+1, i)|.
  std::vector<double> offDiag(static_cast<std::size_t>(std::max(n - 1, 0)));
  std::vector<std::complex<double>> phi(static_cast<std::size_t>(n),
                                       {1.0, 0.0});
  for (int i = 0; i + 1 < n; ++i) {
    offDiag[i] = std::abs(t.sub[i]);
    phi[i + 1] = offDiag[i] > 0.0 ? phi[i] * (t.sub[i] / offDiag[i]) : phi[i];
  }
  std::vector<double> all = tridiagonalEigenvalues(t.diag, offDiag);
  k = clusterSafeCount(all, k);
  all.resize(static_cast<std::size_t>(k));
  const auto small = tridiagonalEigenvectors(t.diag, offDiag, all);

  HermitianEigenResult result;
  result.eigenvectors.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    // v = Q D y: apply D, then P_{n-3} first and P_0 last.
    auto& z = result.eigenvectors.emplace_back(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) z[i] = phi[i] * small[j][i];
    for (int p = n - 3; p >= 0; --p) {
      if (t.beta[p] == 0.0) continue;
      const double* vr = &t.ur[static_cast<std::size_t>(p) * n];
      const double* vi = &t.ui[static_cast<std::size_t>(p) * n];
      std::complex<double> dot{0.0, 0.0};
      for (int i = p + 1; i < n; ++i) dot += std::complex(vr[i], -vi[i]) * z[i];
      dot *= t.beta[p];
      for (int i = p + 1; i < n; ++i) z[i] -= dot * std::complex(vr[i], vi[i]);
    }
  }
  auto& vecs = result.eigenvectors;
  for (int begin = 0, end = 0; begin < k; begin = end) {
    end = clusterSafeCount(all, begin + 1);
    std::vector<std::vector<std::complex<double>>> space(vecs.begin() + begin,
                                                         vecs.begin() + end);
    canonicalEigenbasis(space, phaseAnchor);
    std::copy(space.begin(), space.end(), vecs.begin() + begin);
  }
  result.eigenvalues = std::move(all);
  return result;
}

void canonicalEigenbasis(std::vector<std::vector<std::complex<double>>>& basis,
                         int phaseAnchor) {
  MOSAIC_CHECK(!basis.empty(), "an eigenspace needs at least one vector");
  const int n = static_cast<int>(basis.front().size());
  MOSAIC_CHECK(phaseAnchor < n, "phase anchor outside the vectors");
  // uncovered[i]: squared norm of the part of column P e_i outside the
  // canonical vectors chosen so far.
  std::vector<double> uncovered(static_cast<std::size_t>(n), 0.0);
  for (const auto& v : basis) {
    for (int i = 0; i < n; ++i) uncovered[i] += std::norm(v[i]);
  }
  std::vector<std::vector<std::complex<double>>> canonical;
  while (canonical.size() < basis.size()) {
    int pivot = phaseAnchor;
    if (pivot < 0 || uncovered[pivot] <= 1e-16) {
      const double best = *std::max_element(uncovered.begin(), uncovered.end());
      pivot = 0;
      while (uncovered[pivot] < best * (1.0 - kTieTol)) ++pivot;
    }
    std::vector<std::complex<double>> u(static_cast<std::size_t>(n));
    for (const auto& v : basis) {
      for (int i = 0; i < n; ++i) u[i] += std::conj(v[pivot]) * v[i];
    }
    for (const auto& c : canonical) {
      std::complex<double> dot{0.0, 0.0};
      for (int i = 0; i < n; ++i) dot += std::conj(c[i]) * u[i];
      for (int i = 0; i < n; ++i) u[i] -= dot * c[i];
    }
    double len = 0.0;
    for (const auto& z : u) len += std::norm(z);
    const double mag = std::abs(u[pivot]);
    MOSAIC_CHECK(mag > 0.0, "basis vectors are not orthonormal");
    const std::complex<double> scale = std::conj(u[pivot]) / (mag * std::sqrt(len));
    for (auto& z : u) z *= scale;
    u[pivot] = std::abs(u[pivot]);
    for (int i = 0; i < n; ++i) uncovered[i] -= std::norm(u[i]);
    canonical.push_back(std::move(u));
  }
  basis = std::move(canonical);
}

int clusterSafeCount(const std::vector<double>& values, int count) {
  const int size = static_cast<int>(values.size());
  if (count <= 0 || count >= size) return std::min(count, size);
  const double tol = 1e-8 * std::fabs(values.front());
  while (count < size && values[count - 1] - values[count] <= tol) ++count;
  return count;
}

double maxEigenResidual(const std::vector<std::complex<double>>& h, int n,
                        const HermitianEigenResult& result) {
  MOSAIC_CHECK(h.size() == static_cast<std::size_t>(n) * n,
               "matrix storage size mismatch");
  double worst = 0.0;
  for (std::size_t j = 0; j < result.eigenvalues.size(); ++j) {
    const auto& v = result.eigenvectors[j];
    for (int r = 0; r < n; ++r) {
      std::complex<double> acc{0.0, 0.0};
      for (int c = 0; c < n; ++c) {
        acc += h[static_cast<std::size_t>(r) * n + c] * v[c];
      }
      acc -= result.eigenvalues[j] * v[r];
      worst = std::max(worst, std::abs(acc));
    }
  }
  return worst;
}

}  // namespace mosaic
