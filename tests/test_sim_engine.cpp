// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, horizon semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace ktau::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  TimeNs seen = 0;
  e.schedule_at(1'000'000, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 1'000'000u);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  TimeNs seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, PastEventsClampToNow) {
  Engine e;
  TimeNs seen = 0;
  e.schedule_at(100, [&] {
    // Scheduling "in the past" is clamped, not an error.
    e.schedule_at(10, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(10, [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndToleratesNoEvent) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  e.cancel(id);
  e.cancel(id);        // double cancel: no-op
  e.cancel(kNoEvent);  // sentinel: no-op
  e.run();
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CancelOneOfManyAtSameTime) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(0); });
  const EventId id = e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.cancel(id);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Engine, RunUntilStopsAtHorizonAndSetsNow) {
  Engine e;
  std::vector<TimeNs> fired;
  for (TimeNs t : {10u, 20u, 30u, 40u}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run_until(25);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(e.now(), 25u);
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, RunUntilIncludesEventsAtHorizon) {
  Engine e;
  bool ran = false;
  e.schedule_at(25, [&] { ran = true; });
  e.run_until(25);
  EXPECT_TRUE(ran);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  // A chain: each event schedules the next, five deep.
  std::function<void()> chain = [&] {
    if (++depth < 5) e.schedule_after(10, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40u);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const EventId a = e.schedule_at(1, [] {});
  e.schedule_at(2, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at(static_cast<TimeNs>((i * 37) % 11), [&order, i] {
        order.push_back(i);
      });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(10, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

// Regression: the seed engine recorded cancel-after-fire ids in its
// tombstone set forever, permanently skewing pending().  A fired event's
// handle must be a true no-op to cancel, and pending() must stay exact.
TEST(Engine, CancelAfterFireIsNoOpAndKeepsPendingExact) {
  Engine e;
  const EventId fired = e.schedule_at(10, [] {});
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  e.cancel(fired);  // already ran: must not disturb anything
  EXPECT_EQ(e.pending(), 0u);
  e.schedule_at(20, [] {});
  e.schedule_at(30, [] {});
  EXPECT_EQ(e.pending(), 2u);  // seed engine reported 1 here
  e.run();
  EXPECT_EQ(e.executed(), 3u);
}

// A handle whose slot was reused by a later event must not cancel the new
// occupant (generation tag mismatch).
TEST(Engine, StaleHandleDoesNotCancelSlotReuse) {
  Engine e;
  const EventId old_id = e.schedule_at(10, [] {});
  e.run();  // fires; slot goes back on the free list
  bool ran = false;
  const EventId new_id = e.schedule_after(10, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  e.cancel(old_id);  // stale generation: must not touch the new event
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(ran);
}

// An event cancelling its own handle while running must be a no-op (the
// handle is already spent by the time the callback executes).
TEST(Engine, SelfCancelDuringCallbackIsNoOp) {
  Engine e;
  EventId self = kNoEvent;
  bool ran = false;
  self = e.schedule_at(10, [&] {
    ran = true;
    e.cancel(self);
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

// Cancelling from inside a callback an event that has not yet fired.
TEST(Engine, CallbackCancelsLaterEvent) {
  Engine e;
  bool victim_ran = false;
  const EventId victim = e.schedule_at(20, [&] { victim_ran = true; });
  e.schedule_at(10, [&] { e.cancel(victim); });
  e.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(e.executed(), 1u);
}

// Randomized stress against a naive reference model: same fixed-seed
// operation sequence applied to the engine and to a sorted-list model must
// produce the same execution order and the same pending count throughout.
TEST(Engine, StressMatchesReferenceModel) {
  // Tags are assigned in schedule order, so tag doubles as the FIFO
  // sequence number of the reference model.
  struct RefEvent {
    TimeNs time;
    int tag;
    bool cancelled;
  };
  Engine e;
  std::vector<RefEvent> ref;
  std::vector<int> engine_order;  // tags in engine execution order
  std::vector<char> fired;        // indexed by tag
  std::vector<EventId> handles;   // indexed by tag
  std::size_t ref_pending = 0;
  std::size_t seen = 0;  // prefix of engine_order already accounted
  std::mt19937 rng(1234);
  for (int round = 0; round < 5000; ++round) {
    const auto op = rng() % 4;
    if (op < 2) {  // schedule
      const TimeNs t = e.now() + rng() % 500;
      const int tag = static_cast<int>(ref.size());
      handles.push_back(e.schedule_at(t, [&engine_order, tag] {
        engine_order.push_back(tag);
      }));
      ref.push_back(RefEvent{t, tag, false});
      fired.push_back(0);
      ++ref_pending;
    } else if (op == 2 && !handles.empty()) {  // cancel a random handle
      const std::size_t pick = rng() % handles.size();
      e.cancel(handles[pick]);
      // Reference: the cancel only counts if the event has not fired and
      // was not already cancelled — anything else is a no-op.
      if (fired[pick] == 0 && !ref[pick].cancelled) {
        ref[pick].cancelled = true;
        --ref_pending;
      }
    } else {  // step
      e.step();
    }
    for (; seen < engine_order.size(); ++seen) {
      fired[static_cast<std::size_t>(engine_order[seen])] = 1;
      --ref_pending;
    }
    ASSERT_EQ(e.pending(), ref_pending) << "round " << round;
  }
  e.run();
  // Expected order: surviving reference events sorted by (time, tag).
  std::vector<RefEvent> live;
  for (const auto& r : ref) {
    if (!r.cancelled) live.push_back(r);
  }
  std::sort(live.begin(), live.end(), [](const RefEvent& a, const RefEvent& b) {
    return a.time != b.time ? a.time < b.time : a.tag < b.tag;
  });
  std::vector<int> expected;
  for (const auto& r : live) expected.push_back(r.tag);
  EXPECT_EQ(engine_order, expected);
}

// ---------------------------------------------------------------------------
// Operation mixes against a queue oracle.  Each mix replays one fixed
// operation sequence through sim::Engine and through OracleEngine — a
// std::priority_queue on (time, schedule order) plus a cancelled set, the
// engine's contract with none of its machinery — and every callback logs
// (now, tag).  The two logs must match entry for entry, so an ordering,
// tie-break or cancellation difference anywhere in ~20k events fails.
// ---------------------------------------------------------------------------

class OracleEngine {
 public:
  TimeNs now() const { return now_; }
  std::uint64_t executed() const { return executed_; }

  EventId schedule_at(TimeNs t, std::function<void()> cb) {
    cbs_.push_back(std::move(cb));
    const EventId id = cbs_.size();  // ids start at 1: 0 is kNoEvent
    queue_.push(Entry{std::max(t, now_), id});
    return id;
  }
  EventId schedule_after(TimeNs dt, std::function<void()> cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Fired, cancelled and never-issued ids are no-ops (a fired event's
  /// callback has been moved out).
  void cancel(EventId id) {
    if (id == kNoEvent || id > cbs_.size() || !cbs_[id - 1]) return;
    cancelled_.insert(id);
  }

  bool step() {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      queue_.pop();
      std::function<void()> cb = std::move(cbs_[top.id - 1]);
      cbs_[top.id - 1] = nullptr;
      if (cancelled_.erase(top.id) != 0) continue;
      now_ = top.time;
      ++executed_;
      cb();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }

 private:
  struct Entry {
    TimeNs time;
    EventId id;  // schedule order: the FIFO tie-break
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  TimeNs now_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<std::function<void()>> cbs_;  // indexed by id - 1
  std::unordered_set<EventId> cancelled_;
};

using ExecLog = std::vector<std::pair<TimeNs, std::uint64_t>>;  // (now, tag)

constexpr std::uint64_t kMixEvents = 20'000;

template <class E>
void log_exec(E& e, ExecLog& log, std::uint64_t tag) {
  log.emplace_back(e.now(), tag);
}

// Uniform one-shots: ~8k in flight at random offsets, dense enough that
// many land on the same nanosecond and the FIFO tie-break decides.
template <class E>
void mix_uniform(E& e, ExecLog& log) {
  std::uint64_t rng = 0x5EEDu;
  for (std::uint64_t scheduled = 0; e.executed() < kMixEvents;) {
    if (scheduled < kMixEvents && scheduled < e.executed() + 8192) {
      const TimeNs dt = 1 + splitmix64(rng) % 20000;
      E* ep = &e;
      ExecLog* lp = &log;
      e.schedule_after(dt,
                       [ep, lp, scheduled] { log_exec(*ep, *lp, scheduled); });
      ++scheduled;
    } else {
      e.step();
    }
  }
  e.run();
}

// A self-rescheduling timer: the tick/daemon-wakeup shape of the simulator.
template <class E>
struct Timer {
  E* e;
  ExecLog* log;
  std::uint64_t tag;
  TimeNs period;
  void operator()() const {
    log_exec(*e, *log, tag);
    if (e->executed() < kMixEvents) e->schedule_after(period, *this);
  }
};

// 512 periodic timers, periods spread over ~2 decades.
template <class E>
void mix_timers(E& e, ExecLog& log) {
  for (std::uint64_t i = 0; i < 512; ++i) {
    const TimeNs period = 100 + 173 * i;
    e.schedule_after(period, Timer<E>{&e, &log, i, period});
  }
  e.run();
}

// Work/guard pairs: the work event cancels its guard from inside its
// callback before the guard's (strictly later) deadline — the
// machine.cpp burst_event pattern.  Guard handles live in a ring of
// slots, so a late work event can cancel a newer pair's guard and leave
// its own to fire.
template <class E>
void mix_cancel_guards(E& e, ExecLog& log) {
  std::uint64_t rng = 0xCA9CE1u;
  std::vector<EventId> guards(4096, kNoEvent);
  for (std::uint64_t scheduled = 0; e.executed() < kMixEvents;) {
    if (scheduled < kMixEvents && scheduled < e.executed() + 4096) {
      const TimeNs dt = 1 + splitmix64(rng) % 10000;
      EventId* guard = &guards[scheduled % guards.size()];
      E* ep = &e;
      ExecLog* lp = &log;
      *guard = e.schedule_after(dt + 50000, [ep, lp, scheduled] {
        log_exec(*ep, *lp, 2 * scheduled + 1);
      });
      e.schedule_after(dt, [ep, lp, guard, scheduled] {
        log_exec(*ep, *lp, 2 * scheduled);
        ep->cancel(*guard);
      });
      ++scheduled;
    } else {
      e.step();
    }
  }
  e.run();
}

// The 60/25/15 blend of one-shots, self-rescheduling timers and
// cancellable work/guard pairs; the guard ring is small enough that a
// work event may cancel a handle whose event has already been cancelled
// and whose engine slot has been reused since.
template <class E>
void mix_blend(E& e, ExecLog& log) {
  std::uint64_t rng = 0x313EDu;
  std::uint64_t timers = 0;
  std::vector<EventId> guards(2048, kNoEvent);
  E* ep = &e;
  ExecLog* lp = &log;
  for (std::uint64_t scheduled = 0; e.executed() < kMixEvents;) {
    if (scheduled < kMixEvents && scheduled < e.executed() + 8192) {
      const std::uint64_t r = splitmix64(rng) % 100;
      const TimeNs dt = 1 + splitmix64(rng) % 20000;
      if (r < 60 || (r < 85 && timers == 512)) {
        e.schedule_after(dt, [ep, lp, scheduled] {
          log_exec(*ep, *lp, 3 * scheduled);
        });
      } else if (r < 85) {
        ++timers;
        e.schedule_after(dt, Timer<E>{&e, &log, 3 * scheduled, dt});
      } else {
        EventId* guard = &guards[scheduled % guards.size()];
        *guard = e.schedule_after(dt + 40000, [ep, lp, scheduled] {
          log_exec(*ep, *lp, 3 * scheduled + 1);
        });
        e.schedule_after(dt, [ep, lp, guard, scheduled] {
          log_exec(*ep, *lp, 3 * scheduled + 2);
          ep->cancel(*guard);
        });
      }
      ++scheduled;
    } else {
      e.step();
    }
  }
  e.run();
}

template <class Mix>
void expect_engine_matches_oracle(Mix mix) {
  Engine engine;
  OracleEngine oracle;
  ExecLog got, want;
  mix(engine, got);
  mix(oracle, want);
  ASSERT_GE(want.size(), kMixEvents);
  const auto diverged = std::mismatch(got.begin(), got.end(), want.begin(),
                                      want.end());
  ASSERT_TRUE(diverged.first == got.end() && diverged.second == want.end())
      << "execution order diverges at event " << (diverged.first - got.begin())
      << " of " << want.size() << " (engine " << got.size() << " events)";
  EXPECT_EQ(engine.executed(), oracle.executed());
  EXPECT_EQ(engine.now(), oracle.now());
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineOracle, UniformOneShots) {
  expect_engine_matches_oracle(
      [](auto& e, ExecLog& log) { mix_uniform(e, log); });
}

TEST(EngineOracle, SelfReschedulingTimers) {
  expect_engine_matches_oracle(
      [](auto& e, ExecLog& log) { mix_timers(e, log); });
}

TEST(EngineOracle, CallbacksCancelGuards) {
  expect_engine_matches_oracle(
      [](auto& e, ExecLog& log) { mix_cancel_guards(e, log); });
}

TEST(EngineOracle, MixedTrace) {
  expect_engine_matches_oracle(
      [](auto& e, ExecLog& log) { mix_blend(e, log); });
}

// Oversized captures (> InlineCallback::kInlineSize) must still work via the
// heap fallback, including cancellation releasing the capture.
TEST(Engine, OversizedCaptureFallsBackToHeapAndRuns) {
  Engine e;
  std::array<std::uint64_t, 16> big{};  // 128 bytes: over the inline limit
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  e.schedule_at(10, [big, &sum] {
    for (const auto v : big) sum += v;
  });
  static_assert(!InlineCallback::fits_inline<
                std::array<std::uint64_t, 17>>);  // sanity on the limit
  const EventId doomed = e.schedule_at(20, [big] { (void)big; });
  e.cancel(doomed);  // must free the heap capture, not leak it
  e.run();
  EXPECT_EQ(sum, 136u);
}

}  // namespace
}  // namespace ktau::sim
