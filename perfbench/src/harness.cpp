#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point process_start() { return kProcessStart; }

void Report::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  std::cerr << "check failed: " << what << "\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()))),
      1, values.size());
  return values[rank - 1];
}

double peak_rss_mib() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not
  // do: Linux carries it over exec, so it would report the launcher's peak
  // when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(kCapacity);
  stack_.reserve(16);
}

Tracer::Totals& Tracer::totals_for(const char* name) {
  for (Totals& t : totals_)
    if (t.name == name) return t;
  totals_.push_back(Totals{name, 0, 0, 0});
  return totals_.back();
}

std::int32_t Tracer::begin(const char* name) {
  std::int32_t stored = -1;
  const std::int64_t now = ns_since(epoch_);
  if (spans_.size() < kCapacity) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    spans_.push_back(Span{name, now, now, parent});
    stored = static_cast<std::int32_t>(spans_.size() - 1);
  }
  stack_.push_back(Open{name, now, 0, stored});
  return static_cast<std::int32_t>(stack_.size() - 1);
}

void Tracer::end(std::int32_t handle) {
  const std::int64_t now = ns_since(epoch_);
  // Spans close in LIFO order (Scope guarantees it).
  const Open open = stack_[static_cast<std::size_t>(handle)];
  stack_.resize(static_cast<std::size_t>(handle));
  const std::int64_t duration = now - open.start_ns;
  if (open.stored >= 0) spans_[static_cast<std::size_t>(open.stored)].end_ns = now;
  Totals& t = totals_for(open.name);
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

const Tracer::Totals* Tracer::find(const char* name) const {
  for (const Totals& t : totals_)
    if (t.name == name) return &t;
  return nullptr;
}

std::int64_t Tracer::total_ns(const char* name) const {
  const Totals* t = find(name);
  return t ? t->total_ns : 0;
}

std::uint64_t Tracer::count(const char* name) const {
  const Totals* t = find(name);
  return t ? t->count : 0;
}

double Tracer::mean_ms(const char* name) const {
  const Totals* t = find(name);
  return t && t->count > 0 ? static_cast<double>(t->total_ns) /
                                 static_cast<double>(t->count) / 1e6
                           : 0.0;
}

std::int64_t Tracer::attributed_ns() const {
  std::int64_t sum = 0;
  for (const Totals& t : totals_) sum += t.self_ns;
  return sum;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}%s\n",
                 s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

void finish_trace(Report& report, const Tracer& tracer, const Args& args,
                  double traced_wall_s, double untraced_rate,
                  double traced_rate) {
  constexpr double kClosureTolerancePct = 2.0;
  const double wall_ns = traced_wall_s * 1e9;
  const double unattributed =
      100.0 * (wall_ns - static_cast<double>(tracer.attributed_ns())) / wall_ns;
  if (!(unattributed <= kClosureTolerancePct))
    report.fail("layer spans leave " + std::to_string(unattributed) +
                "% of the traced wall time unattributed (tolerance " +
                std::to_string(kClosureTolerancePct) + "%)");
  report.add("trace.unattributed_pct", unattributed, "%");
  report.add("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0),
             "%");
  if (!args.trace_file.empty() && !tracer.write_chrome_json(args.trace_file))
    std::cerr << "warning: cannot write " << args.trace_file << "\n";
}

}  // namespace perfbench
