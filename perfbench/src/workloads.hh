// The benchmark's workloads.  Each runs in its own process, generates
// its inputs from the seed before any clock starts, measures for the
// requested time, checks the program's outputs, and returns either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "common.hh"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (one JSON object per line).
  std::filesystem::path trace_dir;
};

/// The paper's Figure 4 grid through run_sweep on 2 worker threads.
[[nodiscard]] RunResult run_fig4_sweep(const Options& options);
/// Large EP jobs submitted back to back into a 1-shard service.
[[nodiscard]] RunResult run_serve_backlog(const Options& options);
/// Small EP jobs sent open-loop at a fixed rate into a 2-shard service.
[[nodiscard]] RunResult run_serve_open(const Options& options);

}  // namespace perfbench
