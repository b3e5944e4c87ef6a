// edabench: runs one named workload against the edadb stack and prints
// one JSON result line (see README.md). Normally started by run.py:
//
//   edabench --workload route_pipeline --seed 1 --seconds 20 --trace 0
//            --data-dir .bench_data/run
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: edabench --workload route_pipeline|filter_fanout|"
               "capture_cq --seed N --seconds S --trace 0|1 --data-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: glibc's dynamic mmap threshold otherwise
  // makes the peak RSS of identical runs land on one of two levels
  // depending on the address-space layout.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  edabench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.data_dir.empty()) return Usage();
  if (options.workload == "route_pipeline") {
    return edabench::Drive(options, edabench::MakeRoutePipeline);
  }
  if (options.workload == "filter_fanout") {
    return edabench::Drive(options, edabench::MakeFilterFanout);
  }
  if (options.workload == "capture_cq") {
    return edabench::Drive(options, edabench::MakeCaptureCq);
  }
  return Usage();
}
