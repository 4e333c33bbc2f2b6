// Per-CPU state of a simulated node.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "kernel/types.hpp"
#include "ktau/clock.hpp"
#include "ktau/profile.hpp"
#include "sim/engine.hpp"

namespace ktau::kernel {

struct Cpu {
  CpuId id = 0;

  /// Execution clock: `clock.cursor` is the simulated time up to which this
  /// CPU's execution is committed.  Kernel paths advance it in immediate
  /// mode; user bursts advance it when they end or are interrupted.
  meas::CpuClock clock;

  /// Currently running task (null == idle).
  Task* current = nullptr;

  /// Runnable tasks waiting for this CPU.
  std::deque<Task*> runqueue;

  // -- user-mode burst in progress -------------------------------------------
  bool in_user_burst = false;
  sim::TimeNs burst_start = 0;
  sim::EventId burst_event = sim::kNoEvent;
  /// Wall-time dilation factor applied to the burst in progress (SMP
  /// memory-contention model); re-evaluated at every pause/resume.
  double burst_factor = 1.0;

  // -- timer tick -------------------------------------------------------------
  bool tick_armed = false;
  sim::EventId tick_event = sim::kNoEvent;
  std::uint64_t ticks_since_balance = 0;

  // -- scheduling bookkeeping ---------------------------------------------------
  bool dispatch_pending = false;

  // -- softirq ("bottom half") state -------------------------------------------
  std::uint32_t softirq_pending = 0;

  // -- device interrupts ---------------------------------------------------------
  /// One pending bit per registered IRQ line, like the local APIC's IRR:
  /// set while a delivery of that line is held behind a kernel path on this
  /// CPU.  A raise that finds its bit set adds nothing — the held delivery's
  /// handler drains whatever it stood for.  Sized by Machine::register_irq.
  std::vector<bool> irq_pending;

  // -- idle context -------------------------------------------------------------
  /// The swapper task's measurement profile: interrupt activity while the
  /// CPU is idle is charged here, exactly as KTAU charges pid 0.
  meas::TaskProfile idle_prof;
  Pid idle_pid = 0;
  std::string idle_name;

  // -- counters (simulator health / experiments) --------------------------------
  std::uint64_t hard_irqs = 0;
  /// Raises absorbed by an already-pending line (see irq_pending).
  std::uint64_t irqs_coalesced = 0;
  std::uint64_t context_switches = 0;

  bool idle() const { return current == nullptr; }
};

}  // namespace ktau::kernel
