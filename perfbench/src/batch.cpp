// batch_reservations: offline batch solves on large alpha-restricted
// instances (n = 4000 jobs, m = 64, alpha = 1/2, 32 reservations). Every
// instance of the pool is lower-bounded once and solved by lsrc, fcfs,
// conservative and easy; each schedule is validated and scored. Large
// profiles make StepProfile's indexed queries dominate, the opposite regime
// from the service's small warm profile.
//
// A round is one pass over the pool; rounds repeat identical work, and each
// round's schedules must equal round 0's exactly.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "algorithms/scheduler.hpp"
#include "bounds/lower_bounds.hpp"
#include "checks.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "harness.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

using namespace resched;

namespace {

constexpr std::size_t kPoolSize = 24;

struct Solver {
  const char* name;
  const char* span;  // "<layer>.<what>" literal for the tracer
  const char* metric;
};
constexpr std::array<Solver, 4> kSolvers{{
    {"lsrc", "algorithms.lsrc", "algorithms.lsrc_ms"},
    {"fcfs", "algorithms.fcfs", "algorithms.fcfs_ms"},
    {"conservative", "algorithms.conservative", "algorithms.conservative_ms"},
    {"easy", "algorithms.easy", "algorithms.easy_ms"},
}};

Instance make_instance(std::uint64_t seed) {
  WorkloadConfig jobs;
  jobs.n = 4000;
  jobs.m = 64;
  jobs.p_min = 1;
  jobs.p_max = 100;
  jobs.alpha = Rational(1, 2);
  AlphaReservationConfig resas;
  resas.count = 32;
  // Spread the reservations over most of the ~14k-tick schedule.
  resas.horizon = 10000;
  resas.max_duration = 400;
  resas.alpha = Rational(1, 2);
  return with_alpha_restricted_reservations(random_workload(jobs, seed), resas,
                                            derive_seed(seed, 1));
}

}  // namespace

Report run_batch(const Args& args) {
  Report report;
  Tracer tracer(false);

  // --- setup: generate the pool, prime every scheduler on all of it -------
  std::vector<Instance> pool;
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  std::vector<double> setup_s, instance_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = rep == 0 ? process_start() : Clock::now();
    std::vector<Instance> fresh;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      const Clock::time_point gen_start = Clock::now();
      fresh.push_back(make_instance(derive_seed(args.seed, i)));
      instance_ms.push_back(seconds_since(gen_start) * 1e3);
    }
    schedulers.clear();
    for (const Solver& solver : kSolvers) {
      schedulers.push_back(make_scheduler(solver.name));
      for (const Instance& instance : fresh)
        if (!schedulers.back()->schedule(instance).ok())
          throw std::runtime_error("priming solve failed");
    }
    if (rep == 0) {
      pool = std::move(fresh);
    } else if (fresh != pool) {
      report.fail("instance generation is not deterministic");
    }
    setup_s.push_back(seconds_since(start));
  }

  // --- timed region --------------------------------------------------------
  std::vector<Schedule> first;  // round 0, [instance][solver]
  std::vector<Time> lower_bounds;
  std::vector<double> plain_rate, traced_rate, traced_wall;
  // Per-instance request time (bound + four solves), one vector per round.
  std::vector<std::vector<double>> request_us;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool tracing = args.trace && round % 2 == 1;
    tracer.set_enabled(tracing);
    std::vector<double> requests;
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Instance& instance = pool[i];
      const Clock::time_point request_start = Clock::now();
      Time lb = 0;
      {
        Tracer::Scope span(tracer, "bounds.lower_bound");
        lb = makespan_lower_bound(instance);
      }
      if (round == 0) lower_bounds.push_back(lb);
      for (std::size_t s = 0; s < kSolvers.size(); ++s) {
        ++report.attempted;
        std::optional<ScheduleOutcome> outcome;
        {
          Tracer::Scope span(tracer, kSolvers[s].span);
          outcome.emplace(schedulers[s]->schedule(instance));
        }
        if (!outcome->ok()) {
          report.fail(std::string(kSolvers[s].name) + " rejected instance " +
                      std::to_string(i) + ": " + outcome->error().message);
          if (round == 0) first.emplace_back();
          continue;
        }
        const Schedule& schedule = outcome->value();
        bool valid = false;
        {
          Tracer::Scope span(tracer, "core.validate");
          valid = schedule.validate(instance).ok;
        }
        ScheduleMetrics metrics;
        {
          Tracer::Scope span(tracer, "sim.metrics");
          metrics = compute_metrics(instance, schedule);
        }
        if (!valid || metrics.makespan < lb) {
          report.fail(std::string(kSolvers[s].name) + " on instance " +
                      std::to_string(i) +
                      (valid ? ": makespan below the lower bound"
                             : ": Schedule::validate rejected it"));
        }
        if (round == 0) {
          first.push_back(schedule);
        } else if (!(schedule == first[i * kSolvers.size() + s])) {
          report.fail(std::string(kSolvers[s].name) + " on instance " +
                      std::to_string(i) + " differs from round 0");
        }
      }
      requests.push_back(seconds_since(request_start) * 1e6);
    }
    const double wall = seconds_since(round_start);
    const double rate =
        static_cast<double>(pool.size() * kSolvers.size()) / wall;
    if (tracing) {
      traced_rate.push_back(rate);
      traced_wall.push_back(wall);
    } else {
      plain_rate.push_back(rate);
      request_us.push_back(std::move(requests));
    }
    const bool enough = !args.trace || !traced_rate.empty();
    if (enough && time_is_up(timed_start, wall, args.seconds)) break;
  }
  tracer.set_enabled(false);

  // --- checks on round 0's schedules --------------------------------------
  std::vector<double> waits;
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Instance& instance = pool[i];
    const Time own_lb = own_lower_bound(instance);
    for (std::size_t s = 0; s < kSolvers.size(); ++s) {
      const Schedule& schedule = first[i * kSolvers.size() + s];
      if (schedule.size() == 0) continue;  // already counted as failed
      const std::string where =
          std::string(kSolvers[s].name) + " on instance " + std::to_string(i);
      const std::string error = check_feasible(instance, schedule);
      if (!error.empty()) {
        report.fail(where + ": " + error);
        continue;
      }
      const Time cmax = own_makespan(instance, schedule);
      if (cmax != schedule.makespan(instance))
        report.fail(where + ": Schedule::makespan disagrees with the starts");
      if (cmax < own_lb)
        report.fail(where + ": makespan " + std::to_string(cmax) +
                    " below the area/longest-job bound " +
                    std::to_string(own_lb));
      if (std::string(kSolvers[s].name) == "fcfs" &&
          !starts_follow_queue_order(instance, schedule))
        report.fail(where + ": starts overtake the queue order");
      ratio_sum += static_cast<double>(cmax) /
                   static_cast<double>(lower_bounds[i]);
      ++ratio_count;
      for (const Job& job : instance.jobs())
        waits.push_back(static_cast<double>(schedule.start(job.id) - job.release));
    }
  }

  // --- metrics -------------------------------------------------------------
  // Per-instance request time: median over rounds, then across the pool.
  std::vector<double> per_instance;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::vector<double> samples;
    for (const std::vector<double>& round : request_us) samples.push_back(round[i]);
    per_instance.push_back(median(samples));
  }
  const double cost_over_lb = ratio_sum / std::max<std::size_t>(ratio_count, 1);
  report.note("rounds", static_cast<double>(plain_rate.size()), "count");
  report.note("schedules_per_s", median(plain_rate), "1/s");
  report.note("makespan_over_lb", cost_over_lb, "ratio");

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("throughput_per_s", median(plain_rate), "1/s");
    report.add("decision_p50_us", quantile(per_instance, 0.50), "us");
    report.add("decision_p99_us", quantile(per_instance, 0.99), "us");
    report.add("wait_p99_ticks", quantile(waits, 0.99), "ticks");
    report.add("cost_over_lb", cost_over_lb, "ratio");
    return report;
  }

  double calls = 0.0, decide_ns = 0.0;
  for (const Solver& solver : kSolvers) {
    report.add(solver.metric, tracer.mean_ms(solver.span), "ms");
    calls += static_cast<double>(tracer.count(solver.span));
    decide_ns += static_cast<double>(tracer.total_ns(solver.span));
  }
  report.add("algorithms.decide_us", decide_ns / std::max(calls, 1.0) / 1e3, "us");
  report.add("algorithms.window_jobs", static_cast<double>(pool[0].n()), "jobs");
  report.add("core.validate_ms", tracer.mean_ms("core.validate"), "ms");
  report.add("bounds.lower_bound_ms", tracer.mean_ms("bounds.lower_bound"), "ms");
  report.add("sim.metrics_ms", tracer.mean_ms("sim.metrics"), "ms");
  report.add("generators.instance_ms", median(instance_ms), "ms");
  double wall_s = 0.0;
  for (const double w : traced_wall) wall_s += w;
  finish_trace(report, tracer, args, wall_s, median(plain_rate),
               median(traced_rate));
  return report;
}

}  // namespace perfbench
