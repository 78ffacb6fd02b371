#include "core/profile_allocator.hpp"

#include <algorithm>
#include <utility>

#include "core/availability.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {
// Floor of the frame-pool cap: enough for shallow searches and plans
// even before the open-stack high-water mark has been established.
constexpr std::size_t kMinPoolFrames = 8;
}  // namespace

FreeProfile::FreeProfile(StepProfile free_capacity)
    : profile_(std::move(free_capacity)) {
  RESCHED_REQUIRE_MSG(profile_.min_value() >= 0,
                      "free capacity profile must be non-negative");
}

FreeProfile FreeProfile::for_instance(const Instance& instance) {
  return FreeProfile(availability_profile(instance));
}

ProcCount FreeProfile::capacity_at(Time t) const {
  return profile_.value_at(t);
}

bool FreeProfile::fits_at(Time t, ProcCount q, Time p) const {
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  // Equivalent to min_in(t, t+p) >= q, but bails out at the first deficient
  // segment (and descends the index on wide windows).
  return profile_.first_below(t, checked_add(t, p), q) == kTimeInfinity;
}

Time FreeProfile::earliest_fit(Time t0, ProcCount q, Time p) const {
  RESCHED_REQUIRE(t0 >= 0 && q >= 1 && p > 0);
  RESCHED_REQUIRE_MSG(
      profile_.final_value() >= q,
      "job can never fit: q exceeds the eventual free capacity");
  Time t = t0;
  while (true) {
    // First moment in the window where capacity dips below q; an O(log s)
    // tree descent on indexed profiles.
    const Time deficient = profile_.first_below(t, checked_add(t, p), q);
    if (deficient == kTimeInfinity) return t;
    // The window can only become feasible once capacity comes back up to q;
    // leap over the entire deficient run in one descent. The landing point
    // is a capacity-increase breakpoint (value < q just before it, >= q at
    // it), so the candidate-start lemma in the header still holds, and the
    // result is unchanged: the old breakpoint-by-breakpoint walk stopped at
    // exactly this position. final_value() >= q makes the leap finite, and
    // finitely many breakpoints make the loop terminate.
    const Time resume = profile_.first_at_least(deficient, q);
    RESCHED_CHECK_MSG(resume > t && resume != kTimeInfinity,
                      "earliest_fit failed to advance");
    t = resume;
  }
}

void FreeProfile::push_frame(Time t, ProcCount q, Time p) {
  Frame frame;
  if (!frame_pool_.empty()) {
    // Recycle a whole retired frame: its undo record keeps the buffer
    // capacity of the widest window it ever held, so a warmed-up
    // commit/rewind cycle opens frames without touching the heap.
    frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
  } else {
    ++frame_misses_;
  }
  frame.serial = ++next_serial_;
  profile_.add_recorded(t, checked_add(t, p), -q, frame.undo);
  frames_.push_back(std::move(frame));
  frames_high_water_ = std::max(frames_high_water_, frames_.size());
}

void FreeProfile::pop_frame() {
  Frame& top = frames_.back();
  profile_.rollback(top.undo);
  // Adaptive cap: a rewind of the deepest plan ever carried recycles every
  // frame; anything past that depth would be dead weight.
  if (frame_pool_.size() < std::max(kMinPoolFrames, frames_high_water_))
    frame_pool_.push_back(std::move(top));
  frames_.pop_back();
}

void FreeProfile::commit(Time t, ProcCount q, Time p) {
  RESCHED_REQUIRE_MSG(fits_at(t, q, p),
                      "commit of a job that does not fit at its start time");
  commit_fitted(t, q, p);
}

void FreeProfile::commit_fitted(Time t, ProcCount q, Time p) {
  RESCHED_ASSERT(fits_at(t, q, p));
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  if (recording_) {
    push_frame(t, q, p);
    return;
  }
  profile_.add(t, checked_add(t, p), -q);
  ++permanent_mutations_;
}

void FreeProfile::rewind_to(const Checkpoint& checkpoint) {
  RESCHED_CHECK_MSG(
      permanent_mutations_ == checkpoint.permanent,
      "rewind_to across a permanent capacity mutation: the checkpoint "
      "predates an adjust_capacity / unrecorded commit / compact_history");
  RESCHED_CHECK_MSG(
      frames_.size() >= checkpoint.depth && next_serial_ >= checkpoint.serial,
      "rewind_to target is ahead of this profile's state");
  // Serials grow up the stack, so two frames vouch for the whole stack: the
  // one just below the checkpoint depth must predate the checkpoint (it was
  // not rewound and replaced since), and the oldest one to unwind must not.
  RESCHED_CHECK_MSG(
      (checkpoint.depth == 0 ||
       frames_[checkpoint.depth - 1].serial <= checkpoint.serial) &&
          (frames_.size() == checkpoint.depth ||
           frames_[checkpoint.depth].serial > checkpoint.serial),
      "frame stack does not match the rewind checkpoint");
  while (frames_.size() > checkpoint.depth) pop_frame();
}

void FreeProfile::set_recording(bool on) {
  RESCHED_REQUIRE_MSG(frames_.empty(),
                      "toggling frame recording with open frames");
  recording_ = on;
}

void FreeProfile::adjust_capacity(Time from, Time to, std::int64_t delta) {
  RESCHED_REQUIRE(from >= 0 && to > from);
  RESCHED_CHECK_MSG(frames_.empty(),
                    "adjust_capacity with open plan frames: rewind first");
  if (delta == 0) return;
  if (delta < 0)
    RESCHED_REQUIRE_MSG(
        profile_.min_in(from, to) >= -delta,
        "capacity adjustment would drive free capacity negative");
  profile_.add(from, to, delta);
  ++permanent_mutations_;
}

std::size_t FreeProfile::compact_history(Time t) {
  RESCHED_CHECK_MSG(frames_.empty(),
                    "compact_history with open plan frames: rewind first");
  const std::size_t removed = profile_.compact_before(t);
  if (removed > 0) ++permanent_mutations_;
  return removed;
}

Time FreeProfile::next_change_after(Time t) const {
  return profile_.next_change_after(t);
}

}  // namespace resched
