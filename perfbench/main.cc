// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <evict_replay|serve_hot|mixed_commit> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints a table of every metric with its unit, then the JSON result line
// as the last line of standard output. perfbench/run.py builds this binary
// and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads/common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <evict_replay|serve_hot|"
               "mixed_commit> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &options.seed)) return Usage();
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 600) {
        return Usage();
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) return Usage();
      options.trace = number == 1;
    } else if (flag == "--spans") {
      options.span_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  if (options.workload == "evict_replay") {
    return perfbench::RunEvictReplay(options);
  }
  if (options.workload == "serve_hot") return perfbench::RunServeHot(options);
  if (options.workload == "mixed_commit") {
    return perfbench::RunMixedCommit(options);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               options.workload.c_str());
  return 2;
}
