#include "litho/kernel_cache.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace mosaic {
namespace {

constexpr std::uint32_t kMagic = 0x4d4f534bu;  // "MOSK"
constexpr std::uint32_t kVersion = 1;

void writeU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void writeF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t readU32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  MOSAIC_CHECK(in.good(), "kernel cache: truncated file");
  return v;
}

double readF64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  MOSAIC_CHECK(in.good(), "kernel cache: truncated file");
  return v;
}

void writeSparse(std::ostream& out, const SparseSpectrum& s) {
  writeU32(out, static_cast<std::uint32_t>(s.sampleCount()));
  for (std::size_t i = 0; i < s.sampleCount(); ++i) {
    writeU32(out, static_cast<std::uint32_t>(s.flatIndex[i]));
    writeF64(out, s.value[i].real());
    writeF64(out, s.value[i].imag());
  }
}

SparseSpectrum readSparse(std::istream& in, int gridSize) {
  SparseSpectrum s;
  s.gridSize = gridSize;
  const std::uint32_t count = readU32(in);
  MOSAIC_CHECK(count <= static_cast<std::uint32_t>(gridSize) * gridSize,
               "kernel cache: sample count exceeds grid");
  s.flatIndex.reserve(count);
  s.value.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t flat = readU32(in);
    MOSAIC_CHECK(flat < static_cast<std::uint32_t>(gridSize) * gridSize,
                 "kernel cache: sample index out of range");
    s.flatIndex.push_back(static_cast<int>(flat));
    const double re = readF64(in);
    const double im = readF64(in);
    s.value.emplace_back(re, im);
  }
  return s;
}

}  // namespace

void saveKernelSet(const std::string& path, const KernelSet& set) {
  MOSAIC_CHECK(set.gridSize > 0 && !set.kernels.empty(),
               "cannot save an empty kernel set");
  std::ofstream out(path, std::ios::binary);
  MOSAIC_CHECK(out.good(), "cannot open for writing: " << path);
  writeU32(out, kMagic);
  writeU32(out, kVersion);
  writeU32(out, static_cast<std::uint32_t>(set.gridSize));
  writeF64(out, set.focusNm);
  writeU32(out, static_cast<std::uint32_t>(set.kernels.size()));
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    writeF64(out, set.weights[k]);
    writeSparse(out, set.kernels[k]);
  }
  writeSparse(out, set.combined);
  MOSAIC_CHECK(out.good(), "write failed: " << path);
}

KernelSet loadKernelSet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MOSAIC_CHECK(in.good(), "cannot open kernel cache: " << path);
  MOSAIC_CHECK(readU32(in) == kMagic, "kernel cache: bad magic in " << path);
  MOSAIC_CHECK(readU32(in) == kVersion,
               "kernel cache: unsupported version in " << path);
  KernelSet set;
  set.gridSize = static_cast<int>(readU32(in));
  MOSAIC_CHECK(set.gridSize > 0 && set.gridSize <= 1 << 15,
               "kernel cache: implausible grid size");
  set.focusNm = readF64(in);
  const std::uint32_t count = readU32(in);
  MOSAIC_CHECK(count >= 1 && count <= 4096,
               "kernel cache: implausible kernel count");
  set.weights.reserve(count);
  set.kernels.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    set.weights.push_back(readF64(in));
    set.kernels.push_back(readSparse(in, set.gridSize));
  }
  set.combined = readSparse(in, set.gridSize);
  return set;
}

std::string kernelCacheName(int gridSize, double focusNm) {
  return "kernels_g" + std::to_string(gridSize) + "_f" +
         std::to_string(static_cast<long long>(std::llround(focusNm * 10))) +
         ".bin";
}

std::uint64_t opticsParameterDigest(const OpticsConfig& optics) {
  Fnv1a h;
  h.mix(optics.wavelengthNm);
  h.mix(optics.na);
  h.mix(optics.sigmaInner);
  h.mix(optics.sigmaOuter);
  h.mix(optics.immersionIndex);
  h.mix(optics.kernelCount);
  h.mix(optics.sourceOversample);
  h.mix(optics.aberrations.astigmatism0);
  h.mix(optics.aberrations.astigmatism45);
  h.mix(optics.aberrations.comaX);
  h.mix(optics.aberrations.comaY);
  h.mix(optics.aberrations.spherical);
  h.mix(kKernelSolverVersion);
  return h.digest();
}

std::string opticsParameterHash(const OpticsConfig& optics) {
  return Fnv1a::hashHex(opticsParameterDigest(optics));
}

std::string kernelCacheName(const OpticsConfig& optics, double focusNm) {
  return "kernels_g" + std::to_string(optics.gridSize()) + "_f" +
         std::to_string(static_cast<long long>(std::llround(focusNm * 10))) +
         "_o" + opticsParameterHash(optics) + ".bin";
}

}  // namespace mosaic
