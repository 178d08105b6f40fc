// perfbench: the repository benchmark's harness binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --trace-dir DIR
//
// Prints notes, then one JSON result line last; exits 1 when an output
// check failed and 2 on bad arguments or an unexpected error.  Run it
// through perfbench/run.py, which builds it and completes the metric set
// from BENCHMARK.json.
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hh"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        std::cerr << "perfbench: unknown flag " << flag << '\n';
        return 2;
      }
    }
    if (argc % 2 != 1 || options.seconds <= 0.0) {
      std::cerr << "perfbench: flags take one value each; --seconds must be positive\n";
      return 2;
    }
    RunResult result;
    if (options.workload == "fig4-sweep") {
      result = run_fig4_sweep(options);
    } else if (options.workload == "serve-backlog") {
      result = run_serve_backlog(options);
    } else if (options.workload == "serve-open") {
      result = run_serve_open(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "' (fig4-sweep | serve-backlog | serve-open)\n";
      return 2;
    }
    print_result(result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
