#include "checks.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace perfbench {

using resched::Instance;
using resched::Job;
using resched::ProcCount;
using resched::Reservation;
using resched::Schedule;
using resched::Time;

namespace {

// (time, delta) capacity events of the reservations; ends sort before
// starts at the same instant (intervals are half-open).
std::vector<std::pair<Time, std::int64_t>> reservation_events(
    const Instance& instance) {
  std::vector<std::pair<Time, std::int64_t>> events;
  events.reserve(2 * instance.n_reservations());
  for (const Reservation& r : instance.reservations()) {
    events.emplace_back(r.start, r.q);
    events.emplace_back(r.start + r.p, -static_cast<std::int64_t>(r.q));
  }
  std::sort(events.begin(), events.end());
  return events;
}

}  // namespace

std::string check_feasible(const Instance& instance, const Schedule& schedule) {
  if (schedule.size() != instance.n())
    return "schedule covers " + std::to_string(schedule.size()) + " of " +
           std::to_string(instance.n()) + " jobs";
  std::vector<std::pair<Time, std::int64_t>> events = reservation_events(instance);
  events.reserve(events.size() + 2 * instance.n());
  for (const Job& job : instance.jobs()) {
    if (!schedule.is_scheduled(job.id))
      return "job " + std::to_string(job.id) + " is not placed";
    const Time start = schedule.start(job.id);
    if (start < job.release)
      return "job " + std::to_string(job.id) + " starts at " +
             std::to_string(start) + " before its release " +
             std::to_string(job.release);
    events.emplace_back(start, job.q);
    events.emplace_back(start + job.p, -static_cast<std::int64_t>(job.q));
  }
  std::sort(events.begin(), events.end());
  std::int64_t busy = 0;
  for (std::size_t i = 0; i < events.size();) {
    const Time t = events[i].first;
    for (; i < events.size() && events[i].first == t; ++i)
      busy += events[i].second;
    if (busy > instance.m())
      return "capacity exceeded at t=" + std::to_string(t) + ": " +
             std::to_string(busy) + " > m=" + std::to_string(instance.m());
  }
  return {};
}

Time own_makespan(const Instance& instance, const Schedule& schedule) {
  Time cmax = 0;
  for (const Job& job : instance.jobs())
    cmax = std::max(cmax, schedule.start(job.id) + job.p);
  return cmax;
}

Time own_lower_bound(const Instance& instance) {
  Time job_bound = 0;
  __int128 work = 0;
  for (const Job& job : instance.jobs()) {
    job_bound = std::max(job_bound, job.release + job.p);
    work += static_cast<__int128>(job.q) * job.p;
  }
  // Walk the free-capacity step function m - U(t) until `work` fits.
  const std::vector<std::pair<Time, std::int64_t>> events =
      reservation_events(instance);
  __int128 area = 0;
  Time t = 0;
  std::int64_t reserved = 0;
  std::size_t i = 0;
  while (area < work) {
    while (i < events.size() && events[i].first == t) reserved += events[i++].second;
    const std::int64_t free = instance.m() - reserved;
    const Time next = i < events.size() ? events[i].first : -1;
    if (next < 0) {  // past the last reservation: free == m forever
      const __int128 missing = work - area;
      t += static_cast<Time>((missing + free - 1) / free);
      area = work;
      break;
    }
    const __int128 span_area = static_cast<__int128>(free) * (next - t);
    if (area + span_area >= work) {
      const __int128 missing = work - area;
      t += static_cast<Time>((missing + free - 1) / free);
      area = work;
      break;
    }
    area += span_area;
    t = next;
  }
  return std::max(job_bound, t);
}

ProcCount own_availability_at(const Instance& instance, Time t) {
  ProcCount reserved = 0;
  for (const Reservation& r : instance.reservations())
    if (r.start <= t && t < r.start + r.p) reserved += r.q;
  return instance.m() - reserved;
}

bool starts_follow_queue_order(const Instance& instance,
                               const Schedule& schedule) {
  std::vector<Job> order = instance.jobs();
  std::sort(order.begin(), order.end(), [](const Job& a, const Job& b) {
    return a.release != b.release ? a.release < b.release : a.id < b.id;
  });
  for (std::size_t i = 1; i < order.size(); ++i)
    if (schedule.start(order[i].id) < schedule.start(order[i - 1].id))
      return false;
  return true;
}

Time brute_force_optimum(const Instance& instance) {
  const std::size_t n = instance.n();
  if (n > 8) throw std::invalid_argument("brute force is for n <= 8");
  // Dense free-capacity array over a horizon no schedule needs to pass:
  // the last reservation end plus every job back to back after it.
  Time horizon = 0;
  for (const Reservation& r : instance.reservations())
    horizon = std::max(horizon, r.start + r.p);
  for (const Job& job : instance.jobs())
    horizon = std::max(horizon, job.release) + job.p;
  std::vector<std::int64_t> base(static_cast<std::size_t>(horizon) + 1,
                                 instance.m());
  for (const Reservation& r : instance.reservations())
    for (Time t = r.start; t < r.start + r.p; ++t)
      base[static_cast<std::size_t>(t)] -= r.q;

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Time best = -1;
  std::vector<std::int64_t> free;
  do {
    free = base;
    Time cmax = 0;
    for (const std::size_t j : perm) {
      const Job& job = instance.jobs()[j];
      Time t = job.release;
      for (;;) {
        Time bad = -1;
        for (Time u = t; u < t + job.p; ++u)
          if (free[static_cast<std::size_t>(u)] < job.q) bad = u;
        if (bad < 0) break;
        t = bad + 1;
      }
      for (Time u = t; u < t + job.p; ++u)
        free[static_cast<std::size_t>(u)] -= job.q;
      cmax = std::max(cmax, t + job.p);
    }
    if (best < 0 || cmax < best) best = cmax;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace perfbench
