// Tests of the benchmark's own helpers and of its failure accounting.
// Run with `python3 perfbench/run.py --selftest` (builds first); exits
// nonzero when any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "datagen/benchmarks.h"
#include "fim/fp_growth.h"
#include "harness.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_quantiles() {
  using perfbench::median;
  using perfbench::quantile;
  CHECK(near(median({3, 1, 2}), 2.0));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({7}), 7.0));
  CHECK(near(quantile({1, 2, 3, 4, 5}, 0.25), 2.0));
  CHECK(near(quantile({1, 2, 3, 4, 5}, 0.75), 4.0));
  CHECK(near(quantile({10, 20}, 0.25), 12.5));
  CHECK(near(quantile({5, 1, 9}, 0.0), 1.0));
  CHECK(near(quantile({5, 1, 9}, 1.0), 9.0));
  CHECK(throws([] { quantile({}, 0.5); }));
  CHECK(throws([] { quantile({1.0}, 1.5); }));
}

void test_self_time() {
  using perfbench::SpanRecord;
  // Parent [0, 10]; children overlap each other ([1,3] and [2,5] cover
  // [1,5]) and one sticks out of the parent ([8,12] counts as [8,10]).
  std::vector<SpanRecord> spans = {
      {"root", -1, 0, 10}, {"a", 0, 1, 3},  {"b", 0, 2, 5},
      {"c", 0, 8, 12},     {"a1", 1, 1, 2},
  };
  const std::vector<double> self = perfbench::self_times_ms(spans);
  CHECK(self.size() == 5);
  CHECK(near(self[0], 10 - 6));
  CHECK(near(self[1], 2 - 1));  // a minus its child a1
  CHECK(near(self[2], 3));
  CHECK(near(self[3], 4));
  CHECK(near(self[4], 1));

  perfbench::SpanLog log;
  const int outer = log.begin("outer");
  const int inner = log.begin("inner");
  CHECK(throws([&] { log.end(outer); }));  // inner is still open
  log.end(inner);
  log.end(outer);
  CHECK(log.spans()[1].parent == outer);
  CHECK(log.spans()[0].parent == -1);
  CHECK(log.spans()[0].end_ms >= log.spans()[1].end_ms);
  const std::vector<double> s2 = perfbench::self_times_ms(log.spans());
  CHECK(near(s2[0] + s2[1], log.spans()[0].dur_ms()));
  CHECK(log.chrome_json().find("\"name\":\"inner\"") != std::string::npos);
}

void test_vmhwm() {
  using perfbench::parse_vmhwm_kib;
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   123456 kB\n"
      "VmRSS:\t  1000 kB\n";
  CHECK(parse_vmhwm_kib(status).value_or(-1) == 123456.0);
  CHECK(!parse_vmhwm_kib("VmRSS:\t1000 kB\n").has_value());
  CHECK(!parse_vmhwm_kib("VmHWM:\tlots kB\n").has_value());
  CHECK(!parse_vmhwm_kib("VmHWM:\t12\n").has_value());  // unit missing
  CHECK(!parse_vmhwm_kib("XVmHWM:\t12 kB\n").has_value());
  CHECK(parse_vmhwm_kib("VmHWM:\t7 kB").value_or(-1) == 7.0);
  perfbench::PeakRss rss;
  rss.reset();
  CHECK(rss.peak_mib() > 0.0);
}

void test_result_json() {
  using perfbench::Metric;
  const std::string line = perfbench::result_json(
      true, 12, 0,
      {{"mine_s", 1.25, "s"}, {"sim_s", 0.1 + 0.2, "sim-s"},
       {"peak_rss_mb", 930, "MiB"}});
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
        "{\"mine_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"sim_s\": "
        "{\"value\": 0.30000000000000004, \"unit\": \"sim-s\"}, "
        "\"peak_rss_mb\": {\"value\": 930, \"unit\": \"MiB\"}}}");
  CHECK(perfbench::result_json(false, 1, 1, {}) ==
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
        "{}}");
  CHECK(throws([] {
    perfbench::result_json(true, 1, 0, {{"x", std::nan(""), "s"}});
  }));
}

void test_render_fimi() {
  yafim::fim::FrequentItemsets f(2, 10);
  f.add({4}, 6);
  f.add({1}, 5);
  f.add({1, 4}, 3);
  std::string out = "stale";
  perfbench::render_fimi(f, out);
  CHECK(out == "1  (5)\n4  (6)\n1 4  (3)\n");
}

/// The last line `run` printed, or "" when it printed none.
std::string last_line_of_run(const perfbench::RunOptions& opt, int* code) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  if (f == nullptr) throw std::runtime_error("open_memstream");
  *code = perfbench::run(opt, f);
  std::fclose(f);
  std::string all(buf, len);
  std::free(buf);
  while (!all.empty() && all.back() == '\n') all.pop_back();
  const size_t nl = all.rfind('\n');
  return nl == std::string::npos ? all : all.substr(nl + 1);
}

void test_failure_accounting() {
  // Tally against a small real mine and a deliberately altered oracle.
  const auto bench = yafim::datagen::make_chess(0.1, 3);
  const auto oracle = yafim::fim::fp_growth_mine(bench.db, 0.8).itemsets;
  yafim::fim::FrequentItemsets wrong(oracle.min_support_count(),
                                     oracle.num_transactions());
  bool first = true;
  for (const auto& [itemset, support] : oracle.sorted()) {
    wrong.add(itemset, first ? support + 1 : support);
    first = false;
  }
  perfbench::Tally tally;
  CHECK(tally.record(&oracle, oracle));
  CHECK(!tally.record(&wrong, oracle));
  CHECK(!tally.record(nullptr, oracle));  // a mine that threw
  CHECK(tally.attempted == 3 && tally.failed == 2);
  CHECK(near(tally.failed_frac(), 2.0 / 3.0));

  // The whole run against an altered oracle: nonzero exit, result says so.
  perfbench::RunOptions opt;
  opt.workload = "chess_deep";
  opt.seconds = 0.5;
  opt.alter_oracle = true;
  int code = 0;
  std::string last = last_line_of_run(opt, &code);
  CHECK(code == 1);
  CHECK(last.find("\"correct\": false") != std::string::npos);

  // And a clean run of each mode exits 0 with every metric present.
  opt.alter_oracle = false;
  last = last_line_of_run(opt, &code);
  CHECK(code == 0);
  for (const char* key : {"\"mine_s\"", "\"cpu_s\"", "\"peak_rss_mb\"",
                          "\"sim_s\"", "\"setup_s\"", "\"correct\": true"}) {
    CHECK(last.find(key) != std::string::npos);
  }
  opt.trace = true;
  last = last_line_of_run(opt, &code);
  CHECK(code == 0);
  for (const char* key : {"\"probe.hit_ratio\"", "\"unattributed.ms\"",
                          "\"trace_overhead\"", "\"sim.count_s\""}) {
    CHECK(last.find(key) != std::string::npos);
  }

  opt.workload = "no_such_workload";
  CHECK(perfbench::run(opt, stdout) == 2);
}

}  // namespace

int main() {
  test_quantiles();
  test_self_time();
  test_vmhwm();
  test_result_json();
  test_render_fimi();
  test_failure_accounting();
  if (g_failures) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
