// Discrete-event simulation engine.
//
// A single Engine owns the global simulated timeline.  Everything in the
// reproduction — CPU execution spans, timer ticks, interrupt deliveries,
// network packet arrivals, daemon wakeups — is an event scheduled here.
// Events at equal timestamps execute in scheduling order (FIFO by sequence
// number), which makes every run fully deterministic.
//
// Engine throughput is the hard ceiling on how large a cluster/workload the
// reproduction can model, so the hot path is built for it:
//   - events live in a slot pool with an indexed 4-ary min-heap of slot
//     indices on top (shallower than a binary heap, and each parent's four
//     children share a cache line of indices);
//   - each slot carries a generation tag; an EventId packs (generation,
//     slot), so cancellation is an O(1) validity check plus a true heap
//     removal — no tombstone set, no hash probe when popping;
//   - callbacks are InlineCallback (small-buffer optimized), so scheduling
//     a typical lambda performs no heap allocation.
// See DESIGN.md "Engine internals" for the full layout and the argument
// that determinism is preserved.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace ktau::sim {

/// Handle identifying a scheduled event; usable to cancel it before it
/// fires.  Packs (generation << 32 | slot index + 1); handles are unique
/// across the life of the engine, so cancelling an already-fired event is a
/// true no-op.
using EventId = std::uint64_t;

/// Sentinel returned/accepted where "no event" is meant.
inline constexpr EventId kNoEvent = 0;

class Engine {
 public:
  using Callback = InlineCallback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.  Monotonically non-decreasing.
  TimeNs now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t`.  `t` must be >= now();
  /// events in the past are clamped to now() (they run next, after already
  /// queued same-time events).  Templated so the callable is constructed
  /// directly inside the event slot — no intermediate callback object.
  template <typename F>
  EventId schedule_at(TimeNs t, F&& cb) {
    const std::uint32_t idx = acquire_slot();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      cb_[idx] = std::forward<F>(cb);
    } else {
      cb_[idx].emplace(std::forward<F>(cb));
    }
    const auto pos = static_cast<std::uint32_t>(heap_.size());
    if (heap_.size() == heap_.capacity()) ++pool_grows_;
    heap_.push_back(HeapEntry{t > now_ ? t : now_, next_seq_++, idx});
    pos_[idx] = pos;
    sift_up(pos);
    return (static_cast<EventId>(gen_[idx]) << 32) | (idx + 1);
  }

  /// Schedules `cb` to run `dt` after the current time.  Saturates at
  /// kTimeMax instead of wrapping (a wrapped sum would clamp to now() and
  /// fire immediately).
  template <typename F>
  EventId schedule_after(TimeNs dt, F&& cb) {
    return schedule_at(time_add_sat(now_, dt), std::forward<F>(cb));
  }

  /// Cancels a previously scheduled event.  Cancelling an event that already
  /// ran, was already cancelled, or is kNoEvent is a harmless no-op.
  void cancel(EventId id);

  /// Runs the single earliest pending event.  Returns false if none remain.
  bool step();

  /// Runs until no events remain.
  void run();

  /// Runs events with time <= `t`, then sets now() to `t`.
  void run_until(TimeNs t);

  /// Runs events with time < `h` (or <= `h` when `inclusive`), leaving
  /// now() at the last executed event instead of bumping it to the bound.
  /// This is the conservative-window primitive of the parallel scheduler:
  /// the shard's clock must not overtake the horizon, because cross-shard
  /// arrivals committed at the epoch barrier land exactly at/after it.
  /// In inclusive mode, events scheduled at exactly `h` from within the
  /// window defer to the next call — see the guard in the implementation.
  void run_events_below(TimeNs h, bool inclusive = false);

  /// Advances now() to `t` without running anything (t < now() is a no-op).
  void advance_to(TimeNs t) { now_ = std::max(now_, t); }

  /// Time of the earliest pending event.  Precondition: pending() > 0.
  TimeNs next_time() const { return heap_[0].time; }

  /// Pre-sizes the slot pool, heap, and callback/bookkeeping vectors for
  /// `events` concurrently pending events, so steady-state scheduling at
  /// that occupancy performs no vector growth (see pool_grows()).
  void reserve(std::size_t events);

  /// Number of live (non-cancelled) pending events.
  std::size_t pending() const { return heap_.size(); }

  /// Total events executed since construction (simulator health metric).
  std::uint64_t executed() const { return executed_; }

  /// Internal-vector growth events (slot pool or heap reallocation) since
  /// construction.  A run whose peak occupancy was covered by reserve()
  /// keeps this at its post-warmup value; `bench_matrix --filter
  /// engine_scale` gates on it.  This
  /// deliberately counts capacity growth rather than global operator-new
  /// calls: a process-wide allocation counter would observe other trials
  /// under the parallel runner and break `--jobs` byte-identity.
  std::uint64_t pool_grows() const { return pool_grows_; }

 private:
  static constexpr std::uint32_t kNullPos = 0xFFFFFFFFu;

  /// 16 bytes so the four children of a 4-ary node span exactly one cache
  /// line — the sift loops are bound by these loads.  The u32 sequence
  /// wraps after 4.3 billion schedules; the FIFO tie-break is only affected
  /// for equal-time events scheduled 4.3 billion apart, far beyond any
  /// coexisting-event horizon in this simulator (and runs stay
  /// deterministic regardless).
  struct HeapEntry {
    TimeNs time;
    std::uint32_t seq;   // FIFO tie-break at equal times
    std::uint32_t slot;
  };

  /// Min-heap order on (time, seq) — identical to the seed engine's
  /// (time, id) order, so event execution order is bit-identical.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Removes the heap entry at `pos`, restoring the heap property.
  void heap_remove(std::uint32_t pos);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  TimeNs now_ = 0;
  std::uint32_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t pool_grows_ = 0;
  // Slot pool as parallel arrays: sift operations rewrite pos_ back-pointers
  // on every swap, so pos_ must be a dense 4-byte array (cache-resident) —
  // not a field inside an 80-byte slot struct.  A slot's generation matches
  // a handle's iff the event is live in the heap (gen_ bumps on release), so
  // pos_ doubles as the free-list link for free slots.
  std::vector<std::uint32_t> gen_;  // bumped on free; stale handles no-op
  std::vector<std::uint32_t> pos_;  // heap index when live; next free slot
                                    // when on the free list
  std::vector<Callback> cb_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed on (time, seq)
  std::uint32_t free_head_ = kNullPos;
};

}  // namespace ktau::sim
