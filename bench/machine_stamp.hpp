#pragma once
/// \file machine_stamp.hpp
/// The machine a BENCH_*.json was measured on, as one JSON object: hardware
/// threads, AVX2, the active execution backend, build type and the source
/// revision (MOSAIC_BUILD_TYPE / MOSAIC_GIT_SHA, defined by
/// bench/CMakeLists.txt when it configures the bench targets).

#include <cstdio>
#include <string>
#include <thread>

#include "math/backend.hpp"

namespace mosaic::bench {

inline std::string machineStampJson() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"hardware_threads\": %u, \"avx2\": %s, \"backend\": \"%s\", "
                "\"build_type\": \"%s\", \"git_sha\": \"%s\"}",
                std::thread::hardware_concurrency(),
                exec::cpuHasAvx2() ? "true" : "false",
                exec::currentBackend().name(), MOSAIC_BUILD_TYPE,
                MOSAIC_GIT_SHA);
  return buf;
}

}  // namespace mosaic::bench
