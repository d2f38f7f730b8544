#pragma once
/// \file kernel_cache.hpp
/// Binary serialization of SOCS kernel sets. A kernel set costs tens of
/// milliseconds per focus on a 1024 nm clip and seconds on a chip-scale
/// tile window (TCC build + eigensolve); persisting the result makes
/// repeated CLI invocations and CI runs start instantly. The format is a
/// little-endian private binary with a magic/version header; files are
/// validated on load and rejected on any mismatch.

#include <cstdint>
#include <string>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"

namespace mosaic {

/// Version of the TCC eigensolver and kernel phase convention behind a
/// kernel set. It is part of opticsParameterDigest, so kernel files and
/// pattern-store entries made under an older solver are recomputed rather
/// than reused. History: 1 = cyclic Jacobi / subspace iteration with
/// solver-chosen phases; 2 = Householder-QL top-k solver with the
/// DC-anchored canonical eigenspace basis (math/eigen.hpp).
constexpr int kKernelSolverVersion = 2;

/// Write a kernel set to a binary file.
void saveKernelSet(const std::string& path, const KernelSet& set);

/// Read a kernel set back. Throws InvalidArgument on malformed files or
/// version mismatch.
KernelSet loadKernelSet(const std::string& path);

/// Deterministic cache filename from grid size + focus only, e.g.
/// "kernels_g256_f250.bin" (focus in tenths of nm). Legacy key: two
/// kernel sets built under different pupil/source settings map to the
/// same name — prefer the OpticsConfig overload for on-disk caches.
std::string kernelCacheName(int gridSize, double focusNm);

/// Deterministic cache filename covering *every* optical parameter, e.g.
/// "kernels_g256_f250_o1a2b3c4d5e6f708.bin". The trailing token is an
/// FNV-1a hash over wavelength, NA, source sigmas, immersion index,
/// kernel count, source oversampling, the Zernike aberration vector and
/// kKernelSolverVersion, so kernel sets computed under different optics or
/// by an older solver can never collide with a stale cache file. This is
/// the key the simulator's disk cache uses.
std::string kernelCacheName(const OpticsConfig& optics, double focusNm);

/// The optics-parameter hash used by the cache name (16 lowercase hex
/// digits); exposed for tests and external cache tooling.
std::string opticsParameterHash(const OpticsConfig& optics);

/// Raw 64-bit form of opticsParameterHash, for callers that fold it into
/// larger keys (the pattern-library fingerprint) instead of printing it.
std::uint64_t opticsParameterDigest(const OpticsConfig& optics);

}  // namespace mosaic
