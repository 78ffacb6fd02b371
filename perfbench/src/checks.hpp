// The benchmark's own correctness checks. They read only the plain data of
// an Instance (m, jobs, reservations) and a Schedule's start times, and
// recompute everything else here, so a fault shared by the program's
// schedulers and its validator cannot hide from them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace perfbench {

// Sweep-line feasibility: every job is placed, starts at or after its
// release, and at no instant do running jobs plus reservations exceed m.
// Returns an empty string when feasible, otherwise the first violation.
[[nodiscard]] std::string check_feasible(const resched::Instance& instance,
                                         const resched::Schedule& schedule);

// Makespan of a schedule from its starts (max start + p; 0 for no jobs).
[[nodiscard]] resched::Time own_makespan(const resched::Instance& instance,
                                         const resched::Schedule& schedule);

// max( max_j (release_j + p_j),  min { T : free area of [0, T) >= total
// work } ) with free(t) = m - U(t). Every feasible makespan is >= it.
[[nodiscard]] resched::Time own_lower_bound(const resched::Instance& instance);

// Processors not held by reservations at instant t: m - U(t).
[[nodiscard]] resched::ProcCount own_availability_at(
    const resched::Instance& instance, resched::Time t);

// True when starts are non-decreasing along the FCFS queue order
// (release, then id).
[[nodiscard]] bool starts_follow_queue_order(
    const resched::Instance& instance, const resched::Schedule& schedule);

// Optimal makespan by brute force: serial schedule generation (each job at
// its earliest feasible start in list order) over every permutation of the
// jobs. Exact for makespan by the active-schedule theorem; n <= 8 only.
[[nodiscard]] resched::Time brute_force_optimum(
    const resched::Instance& instance);

}  // namespace perfbench
