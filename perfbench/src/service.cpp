// Service workloads: the resident re-planning loop (sim/service_sim) under
// open-loop Poisson arrivals, on its incremental path.
//
// Arrivals are open-loop in simulated ticks, but the wall clock runs as
// fast as the program allows, so decisions per wall second is the
// service's capacity and there is no generator lateness to report.
//
// A round is one pass over the workload's steps, with distinct seeds derived
// from --seed; every round repeats the same steps, so rounds are identical
// work and per-round figures can be reduced by their median. Deterministic
// step results (everything but wall time) must repeat exactly across
// rounds.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "algorithms/scheduler.hpp"
#include "checks.hpp"
#include "core/profile_allocator.hpp"
#include "harness.hpp"
#include "sim/load_gen.hpp"
#include "sim/service_sim.hpp"

namespace perfbench {

using namespace resched;

namespace {

struct ServiceSpec {
  const char* scheduler;
  double rate;        // offered jobs per kilotick
  double churn_rate;  // churn events per kilotick (0 = none)
  ServicePhases phases;
  std::size_t steps_per_round;
};

ServiceSpec spec_for(const std::string& workload) {
  if (workload == "svc_easy")
    return ServiceSpec{"easy", 450.0, 0.0, ServicePhases{1000, 16000, 1000},
                       32};
  return ServiceSpec{"conservative", 300.0, 30.0,
                     ServicePhases{4000, 80000, 4000}, 16};
}

LoadGenConfig load_config() {
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 30;
  load.log_uniform_p = true;
  load.width = WidthDistribution::kPowersOfTwo;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig service_config(const ServiceSpec& spec) {
  ServiceConfig config;
  config.phases = spec.phases;
  config.dispatch_window = 64;
  config.incremental = true;
  config.record_wall_latency = true;
  config.churn.events_per_kilotick = spec.churn_rate;
  return config;
}

// Counters the delegating scheduler collects at its call boundary.
struct CallCounters {
  std::uint64_t calls = 0;
  std::uint64_t window_jobs = 0;       // queue sizes handed to the scheduler
  std::uint64_t profile_segments = 0;  // persistent-profile size at entry
  std::uint64_t index_builds = 0;      // index builds inside the call
  std::uint64_t plans_checked = 0;
  std::uint64_t plan_failures = 0;
  std::string first_failure;
};

// Forwards every call to the scheduler under test. Traced rounds time each
// scheduler call as an "algorithms" span and read the persistent profile's
// size at the boundary; the correctness prefix checks each scratch-path
// plan against the instance it was computed for.
class DelegatingScheduler final : public Scheduler {
 public:
  DelegatingScheduler(const Scheduler& inner, Tracer* tracer,
                      CallCounters& counters, bool check_plans)
      : inner_(inner),
        tracer_(tracer),
        counters_(counters),
        check_plans_(check_plans) {}

  ScheduleOutcome schedule(const Instance& instance) const override {
    ++counters_.calls;
    counters_.window_jobs += instance.n();
    std::int32_t span = -1;
    if (tracer_) span = tracer_->begin("algorithms.schedule");
    ScheduleOutcome outcome = inner_.schedule(instance);
    if (tracer_) tracer_->end(span);
    if (check_plans_) {
      ++counters_.plans_checked;
      const std::string error =
          outcome.ok() ? check_feasible(instance, outcome.value())
                       : "DomainError: " + outcome.error().message;
      if (!error.empty()) {
        if (counters_.plan_failures++ == 0) counters_.first_failure = error;
      }
    }
    return outcome;
  }

  Schedule replan(const ReplanRequest& request) const override {
    ++counters_.calls;
    counters_.window_jobs += request.queue.size();
    const StepProfile& profile = request.free.profile();
    counters_.profile_segments += profile.segment_count();
    const std::uint64_t builds = profile.index_build_count();
    std::int32_t span = -1;
    if (tracer_) span = tracer_->begin("algorithms.replan");
    Schedule plan = inner_.replan(request);
    if (tracer_) tracer_->end(span);
    counters_.index_builds += profile.index_build_count() - builds;
    return plan;
  }

  std::string name() const override { return inner_.name(); }
  Capabilities capabilities() const override { return inner_.capabilities(); }

 private:
  const Scheduler& inner_;
  Tracer* tracer_;
  CallCounters& counters_;
  bool check_plans_;
};

// Everything of a step result that must repeat exactly for the same input.
bool same_deterministic(const ServiceStepResult& a, const ServiceStepResult& b) {
  return a.arrivals == b.arrivals && a.completed == b.completed &&
         a.canceled == b.canceled && a.decisions == b.decisions &&
         a.decisions_measured == b.decisions_measured &&
         a.suffix_jobs_replanned == b.suffix_jobs_replanned &&
         a.plan_frames_rewound == b.plan_frames_rewound &&
         a.compacted_segments == b.compacted_segments &&
         a.churn_events == b.churn_events && a.wait_ticks == b.wait_ticks &&
         a.response_ticks == b.response_ticks &&
         a.queue_depth == b.queue_depth && a.saturated == b.saturated;
}

struct RoundFigures {
  double wall_s = 0.0;        // sum of step walls
  double round_wall_s = 0.0;  // the whole round, bookkeeping included
  std::uint64_t decisions = 0;
  // Decision latency percentiles of the round, in microseconds.
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
};

}  // namespace

Report run_service(const Args& args) {
  const ServiceSpec spec = spec_for(args.workload);
  const LoadGenConfig load = load_config();
  const ServiceConfig config = service_config(spec);
  std::vector<std::uint64_t> step_seeds(spec.steps_per_round);
  for (std::size_t i = 0; i < step_seeds.size(); ++i)
    step_seeds[i] = derive_seed(args.seed, i);

  // --- setup: scheduler + an untimed priming pass, kSetupReps times -------
  // The pass runs every step of the round at an eighth of its length: a few
  // whole steps would make setup's cost hang on those steps' queue
  // excursions, which differ widely between seeds.
  ServiceConfig prime_config = config;
  prime_config.phases = ServicePhases{spec.phases.warmup / 8,
                                      spec.phases.measure / 8,
                                      spec.phases.cooldown / 8};
  std::unique_ptr<Scheduler> scheduler;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = rep == 0 ? process_start() : Clock::now();
    scheduler = make_scheduler(spec.scheduler);
    for (const std::uint64_t seed : step_seeds) {
      const ServiceStepResult prime =
          run_service_step(*scheduler, load, seed, spec.rate, prime_config);
      if (prime.arrivals == 0)
        throw std::runtime_error("priming step did nothing");
    }
    setup_s.push_back(seconds_since(start));
  }

  // --- timed region --------------------------------------------------------
  Report report;
  Tracer tracer(args.trace);
  CallCounters counters;
  DelegatingScheduler traced(*scheduler, &tracer, counters, false);

  std::vector<ServiceStepResult> first;  // round 0, kept for the checks
  std::vector<RoundFigures> plain_rounds, traced_rounds;
  std::uint64_t traced_decisions = 0, traced_arrivals = 0;
  std::int64_t loadgen_ns = 0;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    // Traced runs alternate untraced and traced rounds, so both see the
    // same machine conditions and their difference is the tracing overhead.
    const bool tracing = args.trace && round % 2 == 1;
    const Scheduler& use = tracing ? static_cast<const Scheduler&>(traced)
                                   : *scheduler;
    RoundFigures figures;
    LatencyRecorder decision_ns;
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < step_seeds.size(); ++i) {
      const Clock::time_point step_start = Clock::now();
      std::int32_t span = -1;
      if (tracing) span = tracer.begin("sim.step");
      ServiceStepResult step =
          run_service_step(use, load, step_seeds[i], spec.rate, config);
      if (tracing) tracer.end(span);
      figures.wall_s += seconds_since(step_start);
      figures.decisions += step.decisions;
      decision_ns.merge(step.decision_ns);
      report.attempted += step.decisions;
      if (tracing) {
        traced_decisions += step.decisions;
        traced_arrivals += step.arrivals;
      }
      if (round == 0) {
        first.push_back(std::move(step));
      } else if (!same_deterministic(step, first[i])) {
        report.fail("step " + std::to_string(i) + " of round " +
                        std::to_string(round) +
                        " differs from the same step in round 0",
                    step.decisions);
      }
    }
    const double round_wall = seconds_since(round_start);
    figures.round_wall_s = round_wall;
    figures.p50_us = static_cast<double>(decision_ns.percentile(0.50)) / 1e3;
    figures.p99_us = static_cast<double>(decision_ns.percentile(0.99)) / 1e3;
    figures.p999_us = static_cast<double>(decision_ns.percentile(0.999)) / 1e3;
    (tracing ? traced_rounds : plain_rounds).push_back(figures);
    if (tracing) {
      // Replay of the load generator each step ran, outside the round's
      // wall: its per-arrival cost is charged to the sim layer below.
      for (const std::uint64_t seed : step_seeds) {
        const Clock::time_point replay_start = Clock::now();
        LoadGen gen(load, seed);
        gen.set_rate(spec.rate);
        Time last = 0;
        for (std::uint64_t a = 0; a < spec.phases.total(); ++a)
          last = std::max(last, gen.next().time);
        loadgen_ns += ns_since(replay_start);
        if (last <= 0) report.fail("load generator replay produced no clock");
      }
    }
    const bool enough = !args.trace || !traced_rounds.empty();
    if (enough && time_is_up(timed_start, round_wall, args.seconds)) break;
  }

  // --- checks ------------------------------------------------------------
  const std::uint64_t total_jobs = spec.phases.total();
  LatencyRecorder waits, responses;
  double sustained = 0.0;
  std::uint64_t suffix_jobs = 0, decisions0 = 0, frames = 0, compacted = 0,
                allocs = 0, measured_decisions = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const ServiceStepResult& step = first[i];
    const std::string where = "step " + std::to_string(i) + ": ";
    if (step.arrivals != total_jobs)
      report.fail(where + "arrivals " + std::to_string(step.arrivals) +
                      " != phase total " + std::to_string(total_jobs),
                  step.decisions);
    if (step.completed + step.canceled != step.arrivals)
      report.fail(where + "completed + canceled != arrivals", step.decisions);
    if (step.saturated)
      report.fail(where + "step saturated (offered rate not sustained)",
                  step.decisions);
    waits.merge(step.wait_ticks);
    responses.merge(step.response_ticks);
    sustained += step.sustained_rate;
    suffix_jobs += step.suffix_jobs_replanned;
    decisions0 += step.decisions;
    frames += step.plan_frames_rewound;
    compacted += step.compacted_segments;
    allocs += step.decision_allocs;
    measured_decisions += step.decisions_measured;
  }
  {
    // Prefix of the first step's arrival stream: the scratch path must give
    // the incremental path's wait/response/queue recorders exactly, and
    // each plan it computes must be feasible for the instance it was given.
    ServiceConfig prefix = config;
    prefix.phases = ServicePhases{spec.phases.warmup / 2,
                                  spec.phases.measure / 16,
                                  spec.phases.cooldown / 2};
    const ServiceStepResult incremental =
        run_service_step(*scheduler, load, step_seeds[0], spec.rate, prefix);
    prefix.incremental = false;
    CallCounters check_counters;
    DelegatingScheduler checking(*scheduler, nullptr, check_counters, true);
    const ServiceStepResult scratch =
        run_service_step(checking, load, step_seeds[0], spec.rate, prefix);
    report.attempted += incremental.decisions + scratch.decisions;
    if (!(incremental.wait_ticks == scratch.wait_ticks &&
          incremental.response_ticks == scratch.response_ticks &&
          incremental.queue_depth == scratch.queue_depth))
      report.fail("scratch and incremental paths disagree on the prefix",
                  scratch.decisions);
    if (check_counters.plans_checked != scratch.decisions)
      report.fail("scratch prefix planned " +
                  std::to_string(check_counters.plans_checked) +
                  " times for " + std::to_string(scratch.decisions) +
                  " decisions");
    if (check_counters.plan_failures > 0)
      report.fail("scratch plan infeasible: " + check_counters.first_failure,
                  check_counters.plan_failures);
  }

  // --- metrics -------------------------------------------------------------
  std::vector<double> rate, p50, p99, p999;
  for (const RoundFigures& r : plain_rounds) {
    rate.push_back(static_cast<double>(r.decisions) / r.wall_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    p999.push_back(r.p999_us);
  }
  // Mean response over mean response minus mean wait: a deterministic
  // schedule-quality ratio. The two recorders cover slightly different jobs
  // under churn (a measured job canceled while running has a wait but no
  // response), so this is not a bound ratio; without churn the denominator
  // is the mean runtime of the measured jobs.
  const double response_ratio =
      responses.mean() / (responses.mean() - waits.mean());

  report.note("rounds", static_cast<double>(plain_rounds.size()), "count");
  report.note("decisions_per_round", static_cast<double>(decisions0), "count");
  report.note("events_per_s", median(rate), "1/s");
  report.note("decision_p999_us", median(p999), "us");
  report.note("sustained_per_kt", sustained / first.size(), "1/kt");

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("throughput_per_s", median(rate), "1/s");
    report.add("decision_p50_us", median(p50), "us");
    report.add("decision_p99_us", median(p99), "us");
    report.add("wait_p99_ticks", static_cast<double>(waits.percentile(0.99)),
               "ticks");
    report.add("cost_over_lb", response_ratio, "ratio");
    return report;
  }

  // Traced run: per-layer figures from the traced rounds.
  double traced_wall = 0.0;
  std::vector<double> traced_rate;
  for (const RoundFigures& r : traced_rounds) {
    traced_wall += r.round_wall_s;
    traced_rate.push_back(static_cast<double>(r.decisions) / r.wall_s);
  }
  const double calls = static_cast<double>(std::max<std::uint64_t>(counters.calls, 1));
  const double decide_ns = static_cast<double>(
      tracer.total_ns("algorithms.replan") + tracer.total_ns("algorithms.schedule"));
  const double loadgen_per_arrival =
      static_cast<double>(loadgen_ns) /
      static_cast<double>(std::max<std::uint64_t>(traced_arrivals, 1));
  const double loadgen_total = loadgen_per_arrival * traced_arrivals;
  const double step_ns = static_cast<double>(tracer.total_ns("sim.step"));
  const double upkeep_ns = step_ns - decide_ns - loadgen_total;
  const double d = static_cast<double>(std::max<std::uint64_t>(traced_decisions, 1));
  const double per_round_decisions = static_cast<double>(decisions0);

  report.add("algorithms.decide_us", decide_ns / calls / 1e3, "us");
  report.add("algorithms.window_jobs", counters.window_jobs / calls, "jobs");
  report.add("algorithms.suffix_jobs_per_decision",
             suffix_jobs / per_round_decisions, "jobs");
  report.add("sim.upkeep_us", upkeep_ns / d / 1e3, "us");
  report.add("sim.loadgen_ns", loadgen_per_arrival, "ns");
  report.add("core.profile_segments", counters.profile_segments / calls,
             "count");
  report.add("core.index_builds_per_decision", counters.index_builds / calls,
             "count");
  report.add("core.frames_rewound_per_decision", frames / per_round_decisions,
             "count");
  report.add("core.compacted_segments",
             static_cast<double>(compacted) / first.size(), "count");
  report.add("core.allocs_per_decision",
             static_cast<double>(allocs) /
                 static_cast<double>(std::max<std::uint64_t>(measured_decisions, 1)),
             "count");
  // Inside a step, upkeep is the residual, so the step closes by
  // construction and the check is that the residual is real; the rounds
  // close against their whole wall time in finish_trace.
  if (upkeep_ns < 0.0)
    report.fail("scheduler calls plus load generation exceed the traced step "
                "time");
  finish_trace(report, tracer, args, traced_wall, median(rate),
               median(traced_rate));
  return report;
}

}  // namespace perfbench
