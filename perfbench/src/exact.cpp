// exact_staircase: the setting of Proposition 1 / Figure 2. Small instances
// (n = 10, m = 8) with a non-increasing 4-step staircase of reservations,
// each solved exactly by branch_and_bound (seeded with LSRC's makespan, as
// the campaign runner does) and checked against LSRC. B&B is the only
// src/ user of the tentative commit/rollback probe and runs it at every
// node, so this is the workload where the exact layer shows.
//
// A round is one pass over the pool; rounds repeat identical work.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "algorithms/scheduler.hpp"
#include "bounds/checker.hpp"
#include "bounds/lower_bounds.hpp"
#include "checks.hpp"
#include "exact/bnb.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace resched;

namespace {

constexpr std::size_t kPoolSize = 1200;
// Priming runs B&B on every instance of the pool with this node limit, so
// that setup is a fixed amount of solver work whatever the seed.
constexpr std::uint64_t kPrimeNodeLimit = 1000;
// Instances proven twice over: by B&B and by the brute-force search.
constexpr std::size_t kBruteForceCount = 12;
constexpr std::size_t kBruteForceJobs = 7;
constexpr std::uint64_t kBruteForceSalt = 1'000'000;

Instance make_instance(std::uint64_t seed, std::size_t n) {
  WorkloadConfig jobs;
  jobs.n = n;
  jobs.m = 8;
  jobs.p_max = 12;
  StaircaseConfig stairs;
  stairs.steps = 4;
  stairs.max_initial = 4;  // m / 2
  stairs.max_step_duration = 15;
  return with_nonincreasing_reservations(random_workload(jobs, seed), stairs,
                                         derive_seed(seed, 1));
}

struct Solved {
  Schedule lsrc;
  BnbResult bnb;
};

}  // namespace

Report run_exact(const Args& args) {
  Report report;
  Tracer tracer(false);

  // --- setup: generate the pool, prime every solver on it ------------------
  std::vector<Instance> pool;
  std::unique_ptr<Scheduler> lsrc;
  std::vector<double> setup_s, instance_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = rep == 0 ? process_start() : Clock::now();
    std::vector<Instance> fresh;
    const Clock::time_point gen_start = Clock::now();
    for (std::size_t i = 0; i < kPoolSize; ++i)
      fresh.push_back(make_instance(derive_seed(args.seed, i), 10));
    instance_ms.push_back(seconds_since(gen_start) * 1e3 / kPoolSize);
    // Priming: LSRC, the lower bound and a node-limited B&B on every
    // instance (a whole B&B solve per instance would make setup as long as
    // a round and its length depend on the seed's hardest instances). The
    // limited search gets no upper-bound hint: branch_and_bound crashes
    // when a hint and a node limit stop it before it beats the hint.
    lsrc = make_scheduler("lsrc");
    for (const Instance& instance : fresh) {
      if (!lsrc->schedule(instance).ok())
        throw std::runtime_error("priming solve failed");
      const BnbResult capped = branch_and_bound(
          instance, BnbOptions{.node_limit = kPrimeNodeLimit});
      if (capped.optimal != 0 && capped.optimal < makespan_lower_bound(instance))
        throw std::runtime_error("priming B&B beat the lower bound");
    }
    if (rep == 0) {
      pool = std::move(fresh);
    } else if (fresh != pool) {
      report.fail("instance generation is not deterministic");
    }
    setup_s.push_back(seconds_since(start));
  }

  // --- timed region --------------------------------------------------------
  std::vector<Solved> first;
  std::vector<Time> lower_bounds;
  std::vector<double> plain_rate, traced_rate, traced_wall;
  std::vector<std::vector<double>> solve_us;  // per plain round, per instance
  std::uint64_t nodes = 0;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool tracing = args.trace && round % 2 == 1;
    tracer.set_enabled(tracing);
    std::vector<double> solves;
    std::uint64_t proven = 0;
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Instance& instance = pool[i];
      report.attempted += 2;  // one LSRC schedule() call, one B&B solve
      std::optional<ScheduleOutcome> heuristic;
      {
        Tracer::Scope span(tracer, "algorithms.lsrc");
        heuristic.emplace(lsrc->schedule(instance));
      }
      if (!heuristic->ok()) {
        report.fail("lsrc rejected instance " + std::to_string(i), 2);
        if (round == 0) {
          first.emplace_back();
          lower_bounds.push_back(0);
        }
        solves.push_back(0.0);
        continue;
      }
      const Time hint = heuristic->value().makespan(instance);
      Time lb = 0;
      {
        Tracer::Scope span(tracer, "bounds.lower_bound");
        lb = makespan_lower_bound(instance);
      }
      const Clock::time_point solve_start = Clock::now();
      BnbResult bnb;
      {
        Tracer::Scope span(tracer, "exact.bnb");
        bnb = branch_and_bound(instance, BnbOptions{.upper_bound_hint = hint});
      }
      solves.push_back(seconds_since(solve_start) * 1e6);
      if (tracing) nodes += bnb.nodes;
      if (!bnb.proven) {
        report.fail("B&B did not prove instance " + std::to_string(i));
      } else {
        ++proven;
      }
      bool valid = false;
      {
        Tracer::Scope span(tracer, "core.validate");
        valid = bnb.schedule.validate(instance).ok;
      }
      if (!valid) report.fail("B&B schedule of instance " + std::to_string(i) +
                              " rejected by Schedule::validate");
      GuaranteeReport guarantee;
      {
        Tracer::Scope span(tracer, "bounds.guarantee");
        guarantee = check_guarantee(instance, heuristic->value(), bnb.optimal);
      }
      if (guarantee.compliance == Compliance::kViolated)
        report.fail("lsrc violates " + guarantee.guarantee + " on instance " +
                    std::to_string(i));
      if (round == 0) {
        first.push_back(Solved{heuristic->value(), std::move(bnb)});
        lower_bounds.push_back(lb);
      } else if (!(heuristic->value() == first[i].lsrc) ||
                 bnb.optimal != first[i].bnb.optimal ||
                 bnb.nodes != first[i].bnb.nodes) {
        report.fail("instance " + std::to_string(i) + " differs from round 0");
      }
    }
    const double wall = seconds_since(round_start);
    const double rate = static_cast<double>(proven) / wall;
    if (tracing) {
      traced_rate.push_back(rate);
      traced_wall.push_back(wall);
    } else {
      plain_rate.push_back(rate);
      solve_us.push_back(std::move(solves));
    }
    const bool enough = !args.trace || !traced_rate.empty();
    if (enough && time_is_up(timed_start, wall, args.seconds)) break;
  }
  tracer.set_enabled(false);

  // --- checks on round 0's results ----------------------------------------
  std::vector<std::unique_ptr<Scheduler>> heuristics;
  for (const char* name : {"fcfs", "conservative", "easy"})
    heuristics.push_back(make_scheduler(name));
  std::vector<double> waits;
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Instance& instance = pool[i];
    const Solved& solved = first[i];
    if (solved.lsrc.size() == 0) continue;  // already counted as failed
    const std::string where = "instance " + std::to_string(i);
    const Time opt = solved.bnb.optimal;
    for (const Schedule* schedule : {&solved.bnb.schedule, &solved.lsrc}) {
      const std::string error = check_feasible(instance, *schedule);
      if (!error.empty()) report.fail(where + ": " + error);
      for (const Job& job : instance.jobs())
        waits.push_back(static_cast<double>(schedule->start(job.id) - job.release));
    }
    if (own_makespan(instance, solved.bnb.schedule) != opt)
      report.fail(where + ": B&B schedule does not achieve its optimum");
    if (own_lower_bound(instance) > opt || lower_bounds[i] > opt)
      report.fail(where + ": a lower bound exceeds the optimum");
    const Time c_lsrc = own_makespan(instance, solved.lsrc);
    if (c_lsrc < opt) report.fail(where + ": lsrc beats the optimum");
    for (const auto& heuristic : heuristics) {
      const ScheduleOutcome outcome = heuristic->schedule(instance);
      if (!outcome.ok() || !check_feasible(instance, outcome.value()).empty() ||
          own_makespan(instance, outcome.value()) < opt)
        report.fail(where + ": " + heuristic->name() +
                    " is infeasible or beats the optimum");
    }
    // Proposition 1: C_LSRC / C* <= 2 - 1/m(C*), in integers.
    const std::int64_t m_at = own_availability_at(instance, opt);
    if (m_at < 1 || c_lsrc * m_at > opt * (2 * m_at - 1))
      report.fail(where + ": LSRC/OPT exceeds 2 - 1/m(C*)");
    ratio_sum += static_cast<double>(c_lsrc) / static_cast<double>(opt);
  }
  for (std::size_t i = 0; i < kBruteForceCount; ++i) {
    const Instance instance = make_instance(
        derive_seed(args.seed, kBruteForceSalt + i), kBruteForceJobs);
    const BnbResult bnb = branch_and_bound(instance);
    if (!bnb.proven || bnb.optimal != brute_force_optimum(instance))
      report.fail("B&B and the brute-force search disagree on small instance " +
                  std::to_string(i));
  }

  // --- metrics -------------------------------------------------------------
  std::vector<double> per_instance;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::vector<double> samples;
    for (const std::vector<double>& round : solve_us) samples.push_back(round[i]);
    per_instance.push_back(median(samples));
  }
  const double cost_over_lb = ratio_sum / static_cast<double>(pool.size());
  report.note("rounds", static_cast<double>(plain_rate.size()), "count");
  report.note("exact_solves_per_s", median(plain_rate), "1/s");
  report.note("lsrc_over_opt", cost_over_lb, "ratio");

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

  const double bnb_s = static_cast<double>(tracer.total_ns("exact.bnb")) / 1e9;
  const double bnb_calls =
      static_cast<double>(std::max<std::uint64_t>(tracer.count("exact.bnb"), 1));
  report.add("algorithms.decide_us", tracer.mean_ms("algorithms.lsrc") * 1e3, "us");
  report.add("algorithms.window_jobs", static_cast<double>(pool[0].n()), "jobs");
  report.add("algorithms.lsrc_ms", tracer.mean_ms("algorithms.lsrc"), "ms");
  report.add("core.validate_ms", tracer.mean_ms("core.validate"), "ms");
  report.add("bounds.lower_bound_ms", tracer.mean_ms("bounds.lower_bound"), "ms");
  report.add("bounds.guarantee_ms", tracer.mean_ms("bounds.guarantee"), "ms");
  report.add("exact.bnb_ms", tracer.mean_ms("exact.bnb"), "ms");
  report.add("exact.nodes", static_cast<double>(nodes) / bnb_calls, "count");
  report.add("exact.nodes_per_s", static_cast<double>(nodes) / bnb_s, "1/s");
  report.add("generators.instance_ms", median(instance_ms), "ms");
  double wall_s = 0.0;
  for (const double w : traced_wall) wall_s += w;
  finish_trace(report, tracer, args, wall_s, median(plain_rate),
               median(traced_rate));
  return report;
}

}  // namespace perfbench
