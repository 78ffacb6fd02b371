// Shared plumbing of the perfbench workloads: command-line arguments, the
// run report (the JSON line the run ends with), wall-clock helpers and the
// in-memory span tracer used by traced runs.
//
// Every workload follows the same shape:
//   setup   -- generate inputs from --seed and prime the program, repeated
//              kSetupReps times; setup_s is the median repetition;
//   timed   -- whole rounds of identical work, as many as fit in --seconds
//              (at least one); timing metrics are medians over rounds;
//   checks  -- the benchmark's own correctness checks (checks.hpp) over
//              every output the timed region produced.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// The time of this process's static initialisation: setup_s starts here.
[[nodiscard]] Clock::time_point process_start();

// Whether the timed region stops after a round that took last_round_s.
// Rounds are whole, so another one runs only if it fits in what is left of
// the run's --seconds.
[[nodiscard]] inline bool time_is_up(Clock::time_point timed_start,
                                     double last_round_s, double seconds) {
  return seconds_since(timed_start) + last_round_s > seconds;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  // traced runs write their spans here if set
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `attempted` / `failed` count the workload's unit
// operations (service decisions, batch schedule() calls, exact solves);
// a failed correctness check marks the run incorrect and counts the
// operations it covers as failed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Figures printed for reference only (not gated): p999, knee-side
  // numbers, the workload-specific names of the generic metrics.
  std::vector<Metric> reference;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    reference.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Records a failed check (printed to stderr) covering `ops` operations.
  void fail(const std::string& what, std::uint64_t ops = 1);
};

// Median of a sample (copied; the sample may be unsorted). 0 when empty.
[[nodiscard]] double median(std::vector<double> values);
// Nearest-rank quantile q in [0, 1]. 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// Derives the i-th input seed of a run from the workload seed (splitmix64),
// so that every input depends on --seed and on nothing else.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

// ---------------------------------------------------------------------------
// Span tracer. Spans are recorded at the benchmark's own call sites into
// the program's layers; each span has a name ("<layer>.<what>"), start, end
// and the span that was open when it began. Aggregates (count, total and
// self time per name) cover every span; the raw spans are kept in memory up
// to a fixed capacity and written out as Chrome trace-event JSON at the end.
// A disabled tracer records nothing and costs one branch per call site.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;  // relative to the tracer's epoch
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   // index into spans(), -1 for a root
  };
  struct Totals {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // total minus time covered by child spans
  };

  // Raw spans kept for the trace file; aggregates cover every span.
  static constexpr std::size_t kCapacity = 1u << 15;

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  // Opens a span; returns a handle for end(). `name` must be a string
  // literal (aggregates key on the pointer).
  std::int32_t begin(const char* name);
  void end(std::int32_t handle);

  // RAII span; no-op while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled() ? &tracer : nullptr),
          handle_(tracer_ ? tracer_->begin(name) : -1) {}
    ~Scope() {
      if (tracer_) tracer_->end(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t handle_;
  };

  [[nodiscard]] std::int64_t total_ns(const char* name) const;
  [[nodiscard]] std::uint64_t count(const char* name) const;
  // Mean duration of the spans named `name`, in milliseconds (0 if none).
  [[nodiscard]] double mean_ms(const char* name) const;
  // Sum of every span's self time: the time some layer span accounts for.
  [[nodiscard]] std::int64_t attributed_ns() const;

  // Writes the kept spans as a Chrome trace-event JSON array. Returns false
  // if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t stored;  // index in spans_, -1 when over capacity
  };
  Totals& totals_for(const char* name);
  [[nodiscard]] const Totals* find(const char* name) const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<Totals> totals_;
};

// Closes a traced run: adds trace.unattributed_pct (share of the traced
// rounds' wall time no layer span covers; a failed check above the README's
// 2 % tolerance) and trace.overhead_pct (untraced over traced round throughput,
// minus 1), and writes the spans to args.trace_file when one is given.
void finish_trace(Report& report, const Tracer& tracer, const Args& args,
                  double traced_wall_s, double untraced_rate,
                  double traced_rate);

// Workload entry points (one translation unit each).
Report run_service(const Args& args);
Report run_batch(const Args& args);
Report run_exact(const Args& args);

// Number of setup repetitions whose median is setup_s.
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
