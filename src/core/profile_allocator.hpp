// FreeProfile: the schedulers' mutable view of remaining capacity.
//
// Starts from the instance's availability m(t) = m - U(t) and is decremented
// as jobs are committed. All list/backfilling algorithms are expressed with
// three queries:
//
//   fits_at(t, q, p)      -- can a (q, p) job run in [t, t+p)?
//   earliest_fit(t0,q,p)  -- first start >= t0 where it can,
//   commit(t, q, p)       -- allocate it.
//
// Candidate-start lemma (used by earliest_fit and by LSRC's event loop):
// for fixed committed capacity, the set {t : fits_at(t, q, p)} is a finite
// union of left-closed intervals whose left endpoints are either t0 or
// *capacity-increase breakpoints* of the profile. Proof sketch: fits_at
// fails iff the window [t, t+p) meets a deficient segment (capacity < q);
// sliding t right past a deficient segment first becomes possible exactly at
// the segment's right edge, which is a breakpoint where capacity rises.
// Hence earliest_fit only ever returns t0 or an increase breakpoint, and a
// scheduler that re-examines its queue at capacity-increase events (job
// completions, reservation ends) never misses a feasible start.
//
// Complexity: fits_at and each earliest_fit probe are O(log s) on fragmented
// profiles through StepProfile's lazily built min/max segment-tree index;
// earliest_fit leaps over whole runs of deficient segments per iteration
// (first_at_least), so placements no longer rescan the profile linearly.
//
// ## Recorded frames (checkpoint / rewind)
//
// Every way a caller takes back an allocation goes through one mechanism:
// recorded frames over StepProfile's undo log, unwound only by rewind_to.
// Two callers need it. A resident service re-plans its queue on every
// event on ONE long-lived, absolute-time FreeProfile and must unwind each
// plan before the next event. Branch and bound places a job per DFS level
// and must unwind each placement on backtrack.
//
//   set_recording(on)       -- while on, commit/commit_fitted open a
//                              recorded frame (the allocation plus its undo
//                              record) instead of mutating unrecorded. Batch
//                              schedulers run unrecorded; the service loop
//                              and branch and bound record.
//   checkpoint()            -- O(1) snapshot of the frame-stack depth, the
//                              frame serial and the permanent-mutation
//                              count.
//   rewind_to(checkpoint)   -- unwinds every frame opened since the
//                              checkpoint, newest-first, in O(touched) per
//                              frame with the query index kept warm
//                              (invariant I6 in step_profile.hpp), so
//                              arbitrarily long commit/rewind loops never
//                              trigger an O(s) index rebuild. Checkpoints
//                              nest: a DFS takes one per branch, a service
//                              one per plan.
//
// Frames are released only by rewinding to a checkpoint, never by naming
// an allocation, so there is no way to hand back capacity that was never
// allocated (the classic backfilling state-corruption bug): a rewind either
// restores the checkpoint's state bit for bit or trips RESCHED_CHECK with
// the profile unchanged.
//
// Permanent world changes (a job actually starting, churn: cancellations
// freeing capacity, availability drops, reservation moves) go through
// adjust_capacity(), which requires an empty frame stack: plans are always
// rewound before the world moves, so a checkpoint can never span a
// permanent mutation (rewind_to checks this and trips loudly).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/step_profile.hpp"

namespace resched {

class FreeProfile {
 public:
  // View over an explicit capacity profile (must be non-negative).
  explicit FreeProfile(StepProfile free_capacity);

  // Capacity view of an instance before any job is placed.
  [[nodiscard]] static FreeProfile for_instance(const Instance& instance);

  [[nodiscard]] ProcCount capacity_at(Time t) const;

  // True iff min capacity over [t, t+p) is >= q. p > 0, q >= 1, t >= 0.
  [[nodiscard]] bool fits_at(Time t, ProcCount q, Time p) const;

  // Smallest t >= t0 with fits_at(t, q, p). Always terminates: requires
  // q <= final free capacity (capacity after every reservation and committed
  // job has ended), which holds for any valid job of the instance.
  [[nodiscard]] Time earliest_fit(Time t0, ProcCount q, Time p) const;

  // Permanently subtracts q over [t, t+p). Requires fits_at(t, q, p),
  // re-verified here (always on).
  void commit(Time t, ProcCount q, Time p);

  // commit() for callers whose t was just produced by earliest_fit (or an
  // explicit fits_at): the precondition holds by construction, so the
  // redundant windowed-min recheck is a Debug-only RESCHED_ASSERT. This is
  // the schedulers' hot placement path; misuse is still caught downstream
  // by Schedule::validate and the campaign oracle.
  void commit_fitted(Time t, ProcCount q, Time p);

  // O(1) snapshot of the plan frontier; see the header notes. A checkpoint
  // taken on one FreeProfile must only be passed back to that object.
  struct Checkpoint {
    std::uint64_t serial = 0;    // serial of the newest frame ever opened
    std::size_t depth = 0;       // frame-stack depth at checkpoint time
    std::uint64_t permanent = 0; // permanent mutations seen at checkpoint time
  };
  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    return Checkpoint{next_serial_, frames_.size(), permanent_mutations_};
  }

  // Rolls the frame stack back to the checkpoint's depth, newest-first,
  // leaving the profile bit-identical to its checkpoint state with the
  // query index warm. Trips RESCHED_CHECK, with the profile unchanged, if
  // any permanent mutation (adjust_capacity, unrecorded commit,
  // compact_history) happened since the checkpoint -- those cannot be
  // rewound -- if the stack is already below the checkpoint depth, or if
  // the frames around that depth do not match the checkpoint (a stale
  // checkpoint whose frames were rewound and replaced, or one taken on
  // another profile).
  void rewind_to(const Checkpoint& checkpoint);

  // While on, commit()/commit_fitted() open recorded frames that rewind_to
  // can unwind. Toggling requires an empty stack.
  void set_recording(bool on);

  // Permanent capacity mutation (a job starting for real; churn events:
  // cancellation refunds, availability drops, reservation moves). delta < 0
  // withdraws capacity over [from, to), delta > 0 restores it. Requires an
  // empty frame stack -- plans must be rewound before the world moves --
  // and, for withdrawals, that the window can afford it (min capacity over
  // the window stays >= 0).
  void adjust_capacity(Time from, Time to, std::int64_t delta);

  // Forwards StepProfile::compact_before: coalesces dead history strictly
  // before t (the service loop's monotone clock). Requires an empty frame
  // stack. Returns the number of segments removed.
  std::size_t compact_history(Time t);

  // Number of recorded frames not yet rewound.
  [[nodiscard]] std::size_t frame_depth() const noexcept {
    return frames_.size();
  }

  // Heap blocks attributable to this view: the segment store's spills plus
  // every frame the pool failed to recycle (frame_misses). A steady-state
  // probe/plan loop on a warmed-up profile must keep this flat -- the
  // bench-smoke budget gate and the fuzz suites assert exactly that.
  [[nodiscard]] std::uint64_t alloc_count() const noexcept {
    return profile_.alloc_count() + frame_misses_;
  }

  // Frames push_frame constructed from scratch because the recycle pool was
  // empty (diagnostic; the adaptive pool keeps this at the warm-up cost:
  // one per unit of peak frame-stack depth).
  [[nodiscard]] std::uint64_t frame_misses() const noexcept {
    return frame_misses_;
  }

  // Smallest breakpoint > t, or kTimeInfinity (event-driven scheduling).
  [[nodiscard]] Time next_change_after(Time t) const;

  [[nodiscard]] const StepProfile& profile() const noexcept {
    return profile_;
  }

 private:
  // One recorded commit: the undo record that reverts it, and the serial
  // rewind_to matches against its checkpoint.
  struct Frame {
    std::uint64_t serial = 0;
    StepProfile::Undo undo;
  };

  // Opens a recorded frame for a validated allocation.
  void push_frame(Time t, ProcCount q, Time p);
  // Reverts the top frame and recycles its undo buffer.
  void pop_frame();

  StepProfile profile_;
  std::vector<Frame> frames_;
  // Retired frames, kept whole (undo buffer included) so commit/rewind
  // cycles stop allocating once warm. Capped adaptively at
  // max(kMinPoolFrames, peak stack depth): a full rewind of the deepest
  // plan this profile has ever carried can recycle every frame, while a
  // shallow search never hoards more than a handful.
  std::vector<Frame> frame_pool_;
  // High-water mark of frames_.size(); sets the pool cap.
  std::size_t frames_high_water_ = 0;
  // push_frame pool misses (see frame_misses()).
  std::uint64_t frame_misses_ = 0;
  std::uint64_t next_serial_ = 0;
  // Count of non-rewindable mutations (adjust_capacity, unrecorded
  // commits, compact_history); rewind_to refuses to cross one.
  std::uint64_t permanent_mutations_ = 0;
  bool recording_ = false;
};

}  // namespace resched
