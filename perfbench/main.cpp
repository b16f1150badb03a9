// perfbench: one run of the host benchmark of fim::yafim_mine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Prints `#` notes and, as its last line, the JSON result (README.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\nworkloads:",
               argv0);
  for (const perfbench::Workload& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const std::string& s, unsigned long long& v) {
  char* end = nullptr;
  v = std::strtoull(s.c_str(), &end, 10);
  return !s.empty() && s[0] != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(argv[0]);
    }
    unsigned long long n = 0;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
    } else if (key == "--seconds" && parse_u64(value, n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);
  return perfbench::run(opt, stdout);
}
