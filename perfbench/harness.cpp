#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q not in [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children.at(static_cast<size_t>(s.parent)).emplace_back(s.start_ms,
                                                              s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms, hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, run_start = 0.0, run_end = 0.0;
    bool open = false;
    for (auto [s, e] : kids) {
      s = std::max(s, lo);
      e = std::min(e, hi);
      if (e <= s) continue;
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

double SpanLog::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

int SpanLog::begin(std::string name) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.start_ms = now_ms();
  spans_.push_back(std::move(rec));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog::end: span " + std::to_string(id) +
                           " is not the innermost open span");
  }
  spans_[static_cast<size_t>(id)].end_ms = now_ms();
  open_.pop_back();
}

std::string SpanLog::chrome_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f}",
                  s.start_ms * 1e3, s.dur_ms() * 1e3);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << buf;
  }
  out << "\n]}\n";
  return out.str();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::optional<double> parse_vmhwm_kib(std::string_view status_text) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t at = 0;
  while ((at = status_text.find(kKey, at)) != std::string_view::npos) {
    if (at == 0 || status_text[at - 1] == '\n') break;
    at += kKey.size();
  }
  if (at == std::string_view::npos) return std::nullopt;
  size_t i = at + kKey.size();
  while (i < status_text.size() &&
         (status_text[i] == ' ' || status_text[i] == '\t')) {
    ++i;
  }
  unsigned long long kib = 0;
  const char* first = status_text.data() + i;
  const char* last = status_text.data() + status_text.size();
  const auto [ptr, ec] = std::from_chars(first, last, kib);
  if (ec != std::errc() || ptr == first) return std::nullopt;
  std::string_view rest(ptr, static_cast<size_t>(last - ptr));
  const size_t eol = rest.find('\n');
  rest = rest.substr(0, eol);
  if (rest.find("kB") == std::string_view::npos) return std::nullopt;
  return static_cast<double>(kib);
}

namespace {

bool write_clear_refs() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

std::optional<double> read_vmhwm_kib() {
  std::ifstream f("/proc/self/status");
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  return parse_vmhwm_kib(ss.str());
}

}  // namespace

PeakRss::PeakRss() {
  per_interval_ = write_clear_refs() && read_vmhwm_kib().has_value();
}

void PeakRss::reset() {
  if (per_interval_ && !write_clear_refs()) {
    throw std::runtime_error("/proc/self/clear_refs stopped accepting writes");
  }
}

double PeakRss::peak_mib() const {
  if (per_interval_) {
    const std::optional<double> kib = read_vmhwm_kib();
    if (!kib) throw std::runtime_error("VmHWM missing from /proc/self/status");
    return *kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string result_json(bool correct, unsigned long long attempted,
                        unsigned long long failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("metric " + m.name + " is not finite");
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), m.value);
    out += i ? ", \"" : "\"";
    out += m.name + "\": {\"value\": ";
    out.append(buf, res.ptr);
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
