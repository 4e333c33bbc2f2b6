#include "kernel/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ktau::kernel {

namespace {
constexpr CpuMask node_mask(std::uint32_t cpus) {
  return cpus >= 64 ? kAllCpus : (1ULL << cpus) - 1;
}
}  // namespace

Machine::Machine(sim::Engine& engine, NodeId id, const MachineConfig& cfg)
    : engine_(engine),
      id_(id),
      cfg_(cfg),
      tick_period_(sim::kSecond / std::max<std::uint32_t>(cfg.hz, 1)),
      rng_(cfg.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1))),
      ktau_(cfg.ktau, cfg.seed ^ (0xD1B54A32D192ED03ULL * (id + 1))) {
  if (cfg_.cpus == 0) throw std::invalid_argument("Machine: needs >= 1 CPU");

  probes_.schedule = ktau_.map_event("schedule", meas::Group::Sched);
  probes_.schedule_vol = ktau_.map_event("schedule_vol", meas::Group::Sched);
  probes_.do_irq = ktau_.map_event("do_IRQ", meas::Group::Irq);
  probes_.timer_irq = ktau_.map_event("timer_interrupt", meas::Group::Irq);
  probes_.do_softirq = ktau_.map_event("do_softirq", meas::Group::BottomHalf);
  probes_.sys_nanosleep = ktau_.map_event("sys_nanosleep", meas::Group::Syscall);
  probes_.sys_sched_yield =
      ktau_.map_event("sys_sched_yield", meas::Group::Syscall);
  probes_.sys_getpid = ktau_.map_event("sys_getpid", meas::Group::Syscall);
  probes_.page_fault = ktau_.map_event("do_page_fault", meas::Group::Exception);
  probes_.signal_deliver =
      ktau_.map_event("signal_deliver", meas::Group::Signal);

  cpus_.reserve(cfg_.cpus);
  for (CpuId c = 0; c < cfg_.cpus; ++c) {
    auto cpu = std::make_unique<Cpu>();
    cpu->id = c;
    cpu->clock.freq = cfg_.freq;
    cpu->idle_pid = c;  // swapper pids occupy [0, ncpus)
    cpu->idle_name = "swapper/" + std::to_string(c);
    if (cfg_.ktau.tracing) cpu->idle_prof.enable_trace(cfg_.ktau.trace_capacity);
    cpu->idle_prof.enable_callpath(cfg_.ktau.callpath);
    cpu->idle_prof.bind_epoch(ktau_.extraction_epoch_ptr());
    cpus_.push_back(std::move(cpu));
  }

  proc_ = std::make_unique<meas::ProcKtau>(
      ktau_, *this, cfg_.freq, [this] { return engine_.now(); });
}

Machine::~Machine() = default;

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

Task& Machine::spawn(std::string name, CpuMask affinity,
                     sim::TimeNs start_delay) {
  auto task = std::make_unique<Task>(next_pid_++, std::move(name), id_);
  task->affinity = affinity;
  task->spawn_time = engine_.now() + start_delay;
  // Capacity comes from the live measurement system, not the construction
  // config: a runtime ring-resize (ctl_set_trace_capacity) applies to tasks
  // spawned afterwards too.
  if (cfg_.ktau.tracing) task->prof.enable_trace(ktau_.trace_capacity());
  task->prof.enable_callpath(cfg_.ktau.callpath);
  task->prof.bind_epoch(ktau_.extraction_epoch_ptr());
  Task& ref = *task;
  tasks_.push_back(std::move(task));
  by_pid_[ref.pid] = &ref;
  return ref;
}

void Machine::launch(Task& t) {
  if (!t.program.valid()) {
    throw std::logic_error("Machine::launch: task has no program installed");
  }
  engine_.schedule_at(t.spawn_time, [this, &t] {
    t.state = TaskState::Runnable;
    enqueue(t, place(t), engine_.now());
  });
}

Task* Machine::find(Pid pid) {
  const auto it = by_pid_.find(pid);
  return it == by_pid_.end() ? nullptr : it->second;
}

void Machine::send_signal(Task& t) {
  if (t.exited) return;
  ++t.pending_signals;
  if (t.state == TaskState::Blocked && t.interruptible_sleep) {
    wake(t, engine_.now());
  }
}

void Machine::deliver_pending_signals(Cpu& cpu, Task& t) {
  while (t.pending_signals > 0) {
    --t.pending_signals;
    kprobe_entry(cpu, probes_.signal_deliver);
    cpu.clock.consume_cycles(cfg_.costs.signal_deliver);
    kprobe_exit(cpu, probes_.signal_deliver);
  }
}

// ---------------------------------------------------------------------------
// TaskTable (walked by /proc/ktau)
// ---------------------------------------------------------------------------

std::vector<meas::TaskSnapshotInput> Machine::live_tasks() const {
  std::vector<meas::TaskSnapshotInput> out;
  out.reserve(cpus_.size() + by_pid_.size());
  for (const auto& cpu : cpus_) {
    out.push_back({cpu->idle_pid, &cpu->idle_name, &cpu->idle_prof});
  }
  // Deterministic pid order for stable snapshots.
  std::vector<const Task*> live;
  live.reserve(by_pid_.size());
  for (const auto& [pid, t] : by_pid_) live.push_back(t);
  std::sort(live.begin(), live.end(),
            [](const Task* a, const Task* b) { return a->pid < b->pid; });
  for (const Task* t : live) out.push_back({t->pid, &t->name, &t->prof});
  return out;
}

meas::TaskProfile* Machine::find_profile(Pid pid) {
  for (auto& cpu : cpus_) {
    if (cpu->idle_pid == pid) return &cpu->idle_prof;
  }
  Task* t = find(pid);
  return t != nullptr ? &t->prof : nullptr;
}

std::optional<meas::TaskSnapshotInput> Machine::find_task(Pid pid) const {
  for (const auto& cpu : cpus_) {
    if (cpu->idle_pid == pid) {
      return meas::TaskSnapshotInput{cpu->idle_pid, &cpu->idle_name,
                                     &cpu->idle_prof};
    }
  }
  const auto it = by_pid_.find(pid);
  if (it == by_pid_.end()) return std::nullopt;
  const Task* t = it->second;
  return meas::TaskSnapshotInput{t->pid, &t->name, &t->prof};
}

// ---------------------------------------------------------------------------
// Scheduling core
// ---------------------------------------------------------------------------

CpuId Machine::place(Task& t) {
  const CpuMask allowed = t.affinity & node_mask(cpu_count());
  if (allowed == 0) {
    throw std::logic_error("place: task affinity excludes every CPU");
  }
  // A CPU is a free placement target only when nothing runs on it AND its
  // runqueue is empty (queued-but-undispatched tasks count as load).
  const auto free = [this](CpuId c) {
    return cpus_[c]->idle() && cpus_[c]->runqueue.empty();
  };

  const bool last_ok = mask_allows(allowed, t.last_cpu);
  if (last_ok && free(t.last_cpu)) return t.last_cpu;

  // Find the lowest-numbered free allowed CPU.
  CpuId idle_cpu = cpu_count();
  for (CpuId c = 0; c < cpu_count(); ++c) {
    if (mask_allows(allowed, c) && free(c)) {
      idle_cpu = c;
      break;
    }
  }
  if (idle_cpu < cpu_count()) {
    // Wake placement imperfection: occasionally stick to the previous CPU
    // even though an idle one exists (see MachineConfig::wake_misplace_prob).
    if (last_ok && cfg_.wake_misplace_prob > 0 &&
        rng_.bernoulli(cfg_.wake_misplace_prob)) {
      return t.last_cpu;
    }
    return idle_cpu;
  }

  // Everyone is busy: shortest runqueue among allowed CPUs (ties: lowest id).
  CpuId best = cpu_count();
  std::size_t best_len = ~std::size_t{0};
  for (CpuId c = 0; c < cpu_count(); ++c) {
    if (!mask_allows(allowed, c)) continue;
    const std::size_t len =
        cpus_[c]->runqueue.size() + (cpus_[c]->idle() ? 0 : 1);
    if (len < best_len) {
      best_len = len;
      best = c;
    }
  }
  return best;
}

void Machine::enqueue(Task& t, CpuId target, sim::TimeNs when) {
  Cpu& c = *cpus_.at(target);
  c.runqueue.push_back(&t);
  if (c.idle() && !c.dispatch_pending) {
    schedule_dispatch(c, std::max(when, c.clock.cursor));
  }
}

void Machine::schedule_dispatch(Cpu& cpu, sim::TimeNs when) {
  if (cpu.dispatch_pending) return;
  cpu.dispatch_pending = true;
  engine_.schedule_at(when, [this, &cpu] { dispatch(cpu); });
}

void Machine::switch_out_common(Cpu& cpu, Task& t,
                                meas::EventId sched_event) {
  // The schedule event is entered in the outgoing task's context; it stays
  // open until the task is switched back in, so its inclusive time is the
  // switched-out duration (exactly KTAU's schedule() instrumentation).
  ktau_.entry(cpu.clock, &t.prof, sched_event);
  t.open_sched_event = sched_event;
  ++t.run_epoch;
  t.cpu = nullptr;
  cpu.current = nullptr;
}

void Machine::dispatch(Cpu& cpu) {
  cpu.dispatch_pending = false;
  begin_path(cpu);
  if (cpu.current != nullptr) return;  // someone is already running
  if (cpu.runqueue.empty()) return;    // stay idle (tickless)

  Task* t = cpu.runqueue.front();
  cpu.runqueue.pop_front();
  cpu.clock.consume_cycles(cfg_.costs.context_switch);
  ktau_.hidden_pairs(cpu.clock, meas::Group::Sched,
                     cfg_.costs.sched_inner_probes);
  ++cpu.context_switches;

  cpu.current = t;
  t->cpu = &cpu;
  t->state = TaskState::Running;
  t->last_cpu = cpu.id;
  if (!t->started) {
    t->started = true;
    t->start_time = cpu.clock.cursor;
  }
  if (t->slice_remaining == 0) t->slice_remaining = cfg_.timeslice;

  if (t->open_sched_event != meas::kNoEventId) {
    ktau_.exit(cpu.clock, &t->prof, t->open_sched_event);
    t->open_sched_event = meas::kNoEventId;
  }

  arm_tick(cpu);
  deliver_pending_signals(cpu, *t);

  if (t->resume) {
    // The task was blocked inside a syscall: run the continuation.
    auto cont = t->resume;
    const SyscallStatus status = cont(cpu, *t);
    if (status == SyscallStatus::Blocked) return;  // re-blocked
    t->resume = nullptr;
    t->current_action.reset();
    complete_action(cpu, *t);
    return;
  }
  advance_task(cpu);
}

void Machine::preempt_current(Cpu& cpu) {
  Task& t = *cpu.current;
  switch_out_common(cpu, t, probes_.schedule);
  t.state = TaskState::Runnable;
  t.slice_remaining = 0;  // expired; refreshed at next dispatch
  cpu.runqueue.push_back(&t);
  schedule_dispatch(cpu, cpu.clock.cursor);
}

void Machine::block_current(Cpu& cpu, Task& t) {
  ++t.wait_token;
  switch_out_common(cpu, t, probes_.schedule_vol);
  t.state = TaskState::Blocked;
  schedule_dispatch(cpu, cpu.clock.cursor);
}

void Machine::wake(Task& t, sim::TimeNs when) {
  if (t.state != TaskState::Blocked) return;
  t.state = TaskState::Runnable;
  t.interruptible_sleep = false;
  const CpuId target = place(t);
  enqueue(t, target, when);
  // Sleeper boost (2.6 dynamic priority): a freshly woken task preempts
  // the task currently running on its target CPU.  With pinning the woken
  // rank always lands on its own CPU; without it, misplaced wakes preempt
  // the co-located rank (the preemption pinning eliminates in Figure 6).
  Cpu& c = *cpus_[target];
  if (c.current != nullptr) try_preempt(c, std::max(when, engine_.now()));
}

void Machine::try_preempt(Cpu& cpu, sim::TimeNs when) {
  engine_.schedule_at(when, [this, &cpu] {
    if (cpu.current == nullptr || cpu.runqueue.empty()) return;
    const sim::TimeNs now = engine_.now();
    if (cpu.clock.cursor > now) {
      // Mid kernel path: resched at its boundary.
      try_preempt(cpu, cpu.clock.cursor);
      return;
    }
    if (cpu.in_user_burst) {
      pause_user_burst(cpu, now);
    } else {
      begin_path(cpu);
    }
    preempt_current(cpu);
  });
}

void Machine::poke_spinner(Task& t, sim::TimeNs when) {
  const std::uint64_t epoch = t.run_epoch;
  engine_.schedule_at(when, [this, &t, epoch] {
    if (t.run_epoch != epoch || !t.spinning || t.cpu == nullptr) return;
    Cpu& cpu = *t.cpu;
    if (cpu.current != &t || !cpu.in_user_burst) return;
    pause_user_burst(cpu, engine_.now());
    advance_task(cpu);  // retries the pending RecvMsg; data is there
  });
}

// ---------------------------------------------------------------------------
// Program advancement
// ---------------------------------------------------------------------------

void Machine::schedule_advance(Cpu& cpu, Task& t) {
  const std::uint64_t epoch = t.run_epoch;
  engine_.schedule_at(cpu.clock.cursor, [this, &cpu, &t, epoch] {
    if (t.run_epoch != epoch || t.state != TaskState::Running ||
        cpu.current != &t) {
      return;  // stale: the task was switched out meanwhile
    }
    begin_path(cpu);
    advance_task(cpu);
  });
}

void Machine::complete_action(Cpu& cpu, Task& t) {
  end_kernel_path(cpu);
  schedule_advance(cpu, t);
}

void Machine::run_syscall_path(Cpu& cpu, meas::EventId ev,
                               std::uint64_t body_cycles) {
  kprobe_entry(cpu, ev);
  cpu.clock.consume_cycles(cfg_.costs.syscall_entry + body_cycles +
                           cfg_.costs.syscall_exit);
  ktau_.hidden_pairs(cpu.clock, meas::Group::Syscall,
                     cfg_.costs.syscall_inner_probes);
  kprobe_exit(cpu, ev);
}

void Machine::advance_task(Cpu& cpu) {
  Task& t = *cpu.current;
  for (;;) {
    if (!t.current_action) {
      auto next = t.program.next();
      if (!next) {
        do_exit(cpu, t);
        return;
      }
      t.current_action = std::move(next);
      t.spin_left = Task::kSpinUnset;
      t.spinning = false;
    }

    Action& a = *t.current_action;
    if (auto* c = std::get_if<Compute>(&a)) {
      if (!t.compute_in_progress) {
        t.compute_remaining = c->duration;
        t.compute_in_progress = true;
      }
      if (t.compute_remaining == 0) {
        t.compute_in_progress = false;
        t.current_action.reset();
        continue;  // zero-length burst completes immediately
      }
      start_user_burst(cpu, t);
      return;
    }
    if (const auto* s = std::get_if<SleepFor>(&a)) {
      do_nanosleep(cpu, t, s->duration);
      return;
    }
    if (std::get_if<Yield>(&a) != nullptr) {
      do_yield(cpu, t);
      return;
    }
    if (std::get_if<NullSyscall>(&a) != nullptr) {
      run_syscall_path(cpu, probes_.sys_getpid, cfg_.costs.null_syscall);
      t.current_action.reset();
      complete_action(cpu, t);
      return;
    }
    if (std::get_if<Fault>(&a) != nullptr) {
      kprobe_entry(cpu, probes_.page_fault);
      cpu.clock.consume_cycles(cfg_.costs.page_fault);
      kprobe_exit(cpu, probes_.page_fault);
      t.current_action.reset();
      complete_action(cpu, t);
      return;
    }
    if (const auto* m = std::get_if<SendMsg>(&a)) {
      if (net_ == nullptr) {
        throw std::logic_error("SendMsg: no network stack installed");
      }
      const SyscallStatus status = net_->sys_send(cpu, t, *m);
      if (status == SyscallStatus::Completed) {
        t.current_action.reset();
        complete_action(cpu, t);
      }
      return;
    }
    if (const auto* m = std::get_if<RecvMsg>(&a)) {
      if (net_ == nullptr) {
        throw std::logic_error("RecvMsg: no network stack installed");
      }
      if (t.spin_left == Task::kSpinUnset) t.spin_left = m->spin_ns;
      t.spinning = false;
      const bool allow_block = t.spin_left == 0;
      const SyscallStatus status = net_->sys_recv(cpu, t, *m, allow_block);
      if (status == SyscallStatus::Completed ||
          status == SyscallStatus::Error) {
        // Error (e.g. another reader already owns the socket's wait slot)
        // completes the action without data; the stack has already counted
        // and reported it loudly.
        t.current_action.reset();
        complete_action(cpu, t);
        return;
      }
      if (status == SyscallStatus::Blocked) return;
      // EAGAIN: burn a chunk of the user-space poll budget, then retry.
      // Chunks grow geometrically (the network stack pokes spinners as
      // soon as their data arrives, so coarse chunks cost no latency).
      const sim::TimeNs spun = m->spin_ns - t.spin_left;
      const sim::TimeNs chunk = std::min<sim::TimeNs>(
          t.spin_left, std::max(cfg_.recv_spin_chunk, spun));
      t.spin_left -= chunk;
      t.compute_remaining = chunk;
      t.spinning = true;
      end_kernel_path(cpu);  // pending softirqs may deliver the data
      start_user_burst(cpu, t);
      return;
    }
    if (const auto* m = std::get_if<RecvAny>(&a)) {
      if (net_ == nullptr) {
        throw std::logic_error("RecvAny: no network stack installed");
      }
      const SyscallStatus status = net_->sys_recv_any(cpu, t, *m);
      if (status == SyscallStatus::Completed ||
          status == SyscallStatus::Error) {
        t.current_action.reset();
        complete_action(cpu, t);
        return;
      }
      // RecvAny has no spin mode: anything not completed is Blocked.
      return;
    }
    throw std::logic_error("advance_task: unhandled action variant");
  }
}

double Machine::dilation_factor(const Cpu& self) {
  if (cfg_.smp_compute_dilation <= 0) return 1.0;
  for (const auto& other : cpus_) {
    if (other.get() == &self || other->idle()) continue;
    // Receive-poll spinning is cache-resident and does not press the
    // memory bus; only real computation on the other CPU dilates us.
    if (other->current != nullptr && other->current->spinning) continue;
    // Contention is stochastic (whether the working sets collide varies
    // burst to burst); the mean is smp_compute_dilation, the draw spans
    // [0.2x, 1.8x] of it.  This variance desynchronises co-located
    // wavefronts — the imbalance amplification of the paper's §5.2.
    return 1.0 + cfg_.smp_compute_dilation * (0.2 + 1.6 * rng_.next_double());
  }
  return 1.0;
}

void Machine::start_user_burst(Cpu& cpu, Task& t) {
  arm_tick(cpu);
  cpu.in_user_burst = true;
  cpu.burst_start = cpu.clock.cursor;
  // Spin bursts neither suffer nor cause memory-bus dilation, and are
  // likewise exempt from the degraded-node slowdown (polling is
  // cache-resident).
  cpu.burst_factor =
      t.spinning ? 1.0 : dilation_factor(cpu) * cfg_.fault_slowdown;
  const auto wall = static_cast<sim::TimeNs>(
      static_cast<double>(t.compute_remaining) * cpu.burst_factor);
  const sim::TimeNs end = cpu.burst_start + wall;
  const std::uint64_t epoch = t.run_epoch;
  cpu.burst_event = engine_.schedule_at(end, [this, &cpu, &t, epoch] {
    if (t.run_epoch != epoch || cpu.current != &t || !cpu.in_user_burst) return;
    on_burst_end(cpu);
  });
}

void Machine::pause_user_burst(Cpu& cpu, sim::TimeNs at) {
  Task& t = *cpu.current;
  const sim::TimeNs elapsed = at > cpu.burst_start ? at - cpu.burst_start : 0;
  // Convert dilated wall time back into work accomplished.
  const auto work = static_cast<sim::TimeNs>(
      static_cast<double>(elapsed) / cpu.burst_factor);
  t.compute_remaining =
      work >= t.compute_remaining ? 0 : t.compute_remaining - work;
  engine_.cancel(cpu.burst_event);
  cpu.burst_event = sim::kNoEvent;
  cpu.in_user_burst = false;
  cpu.clock.cursor = std::max(cpu.clock.cursor, at);
}

void Machine::on_burst_end(Cpu& cpu) {
  cpu.in_user_burst = false;
  cpu.burst_event = sim::kNoEvent;
  begin_path(cpu);
  Task& t = *cpu.current;
  t.compute_remaining = 0;
  if (t.spinning) {
    // A receive-poll spin finished: retry the pending RecvMsg action.
    advance_task(cpu);
    return;
  }
  t.compute_in_progress = false;
  t.current_action.reset();
  advance_task(cpu);
}

void Machine::resume_user(Cpu& cpu) {
  Task& t = *cpu.current;
  if (t.compute_remaining == 0) {
    if (t.spinning) {
      advance_task(cpu);
      return;
    }
    t.compute_in_progress = false;
    t.current_action.reset();
    advance_task(cpu);
    return;
  }
  start_user_burst(cpu, t);
}

void Machine::do_nanosleep(Cpu& cpu, Task& t, sim::TimeNs duration) {
  kprobe_entry(cpu, probes_.sys_nanosleep);
  cpu.clock.consume_cycles(cfg_.costs.syscall_entry +
                           cfg_.costs.nanosleep_setup);
  t.interruptible_sleep = true;

  // Arm the timer wakeup.  The wait token guards against this timer firing
  // after the sleep was already interrupted by a signal.
  const std::uint64_t token = t.wait_token + 1;  // token block_current assigns
  engine_.schedule_at(cpu.clock.cursor + duration, [this, &t, token] {
    if (t.state == TaskState::Blocked && t.wait_token == token) {
      wake(t, engine_.now());
    }
  });

  t.resume = [this](Cpu& c, Task& task) {
    task.interruptible_sleep = false;
    c.clock.consume_cycles(cfg_.costs.syscall_exit);
    kprobe_exit(c, probes_.sys_nanosleep);
    return SyscallStatus::Completed;
  };
  block_current(cpu, t);
}

void Machine::do_yield(Cpu& cpu, Task& t) {
  run_syscall_path(cpu, probes_.sys_sched_yield, cfg_.costs.yield_cost);
  t.current_action.reset();
  if (!cpu.runqueue.empty()) {
    end_kernel_path(cpu);
    switch_out_common(cpu, t, probes_.schedule_vol);
    t.state = TaskState::Runnable;
    cpu.runqueue.push_back(&t);
    schedule_dispatch(cpu, cpu.clock.cursor);
    return;
  }
  complete_action(cpu, t);
}

void Machine::do_exit(Cpu& cpu, Task& t) {
  t.exited = true;
  t.state = TaskState::Dead;
  t.end_time = cpu.clock.cursor;
  ++t.run_epoch;
  t.cpu = nullptr;
  cpu.current = nullptr;
  by_pid_.erase(t.pid);
  ktau_.reap(t.pid, t.name, std::move(t.prof));
  schedule_dispatch(cpu, cpu.clock.cursor);
}

// ---------------------------------------------------------------------------
// Interrupts, softirqs, ticks
// ---------------------------------------------------------------------------

void Machine::register_softirq(SoftirqVec vec,
                               std::function<void(Cpu&)> handler) {
  softirq_handlers_.at(vec) = std::move(handler);
}

void Machine::raise_softirq(Cpu& cpu, SoftirqVec vec) {
  cpu.softirq_pending |= (1u << vec);
}

void Machine::do_softirqs(Cpu& cpu) {
  // Bounded restart like Linux's MAX_SOFTIRQ_RESTART; handlers may re-raise.
  for (int pass = 0; pass < 10 && cpu.softirq_pending != 0; ++pass) {
    const std::uint32_t pending = std::exchange(cpu.softirq_pending, 0);
    kprobe_entry(cpu, probes_.do_softirq);
    cpu.clock.consume_cycles(cfg_.costs.softirq_dispatch);
    ktau_.hidden_pairs(cpu.clock, meas::Group::BottomHalf,
                       cfg_.costs.softirq_inner_probes);
    for (std::uint32_t vec = 0; vec < kSoftirqCount; ++vec) {
      if ((pending & (1u << vec)) != 0 && softirq_handlers_[vec]) {
        softirq_handlers_[vec](cpu);
      }
    }
    kprobe_exit(cpu, probes_.do_softirq);
  }
}

void Machine::end_kernel_path(Cpu& cpu) { do_softirqs(cpu); }

Machine::IrqLine Machine::register_irq(meas::EventId handler_event,
                                       std::function<void(Cpu&)> handler) {
  irq_lines_.push_back(IrqLineEntry{handler_event, std::move(handler)});
  for (auto& cpu : cpus_) cpu->irq_pending.resize(irq_lines_.size());
  return static_cast<IrqLine>(irq_lines_.size()) - 1;
}

void Machine::raise_device_irq(IrqLine line) {
  CpuId target = std::min<CpuId>(cfg_.irq_target, cpu_count() - 1);
  if (cfg_.irq_policy == IrqPolicy::RoundRobin) {
    target = irq_rr_next_;
    irq_rr_next_ = (irq_rr_next_ + 1) % cpu_count();
  }
  Cpu& cpu = *cpus_[target];
  if (cpu.irq_pending.at(line)) {
    // Already pending on this CPU: the held delivery's handler will drain
    // whatever this raise stands for, as one hard IRQ.
    ++cpu.irqs_coalesced;
    return;
  }
  deliver_irq(cpu, line);
}

void Machine::deliver_irq(Cpu& cpu, IrqLine line) {
  const sim::TimeNs now = engine_.now();
  if (cpu.clock.cursor > now) {
    // The CPU is committed inside a kernel path: interrupts are held off
    // until it completes (non-preemptible kernel).  The line stays pending
    // while this one event re-defers itself to the path's end, so further
    // raises of the line are absorbed (raise_device_irq) instead of each
    // queueing — and re-deferring — a delivery of its own.
    cpu.irq_pending[line] = true;
    engine_.schedule_at(cpu.clock.cursor,
                        [this, &cpu, line] { deliver_irq(cpu, line); });
    return;
  }
  // Cleared before the handler runs: a raise from here on (say, a packet
  // arriving after the handler drained the rx ring) is a new interrupt, so
  // nothing a handler drains can be left stranded.
  cpu.irq_pending[line] = false;
  const IrqLineEntry& entry = irq_lines_[line];
  const meas::EventId handler_event = entry.event;
  const auto& handler = entry.handler;

  Task* const interrupted = cpu.current;
  const bool was_burst = cpu.in_user_burst;
  if (was_burst) {
    pause_user_burst(cpu, now);
  } else {
    begin_path(cpu);
  }

  kprobe_entry(cpu, probes_.do_irq);
  cpu.clock.consume_cycles(cfg_.costs.hard_irq);
  ktau_.hidden_pairs(cpu.clock, meas::Group::Irq,
                     cfg_.costs.irq_inner_probes);
  kprobe_entry(cpu, handler_event);
  handler(cpu);
  kprobe_exit(cpu, handler_event);
  kprobe_exit(cpu, probes_.do_irq);
  ++cpu.hard_irqs;

  end_kernel_path(cpu);

  if (was_burst && cpu.current == interrupted) {
    // Cache/TLB disruption: the interrupted computation resumes slower.
    interrupted->compute_remaining +=
        sim::cycles_to_ns(cfg_.costs.irq_cache_disruption, cfg_.freq);
    resume_user(cpu);
  } else if (cpu.idle() && !cpu.runqueue.empty() && !cpu.dispatch_pending) {
    schedule_dispatch(cpu, cpu.clock.cursor);
  }
}

void Machine::arm_tick(Cpu& cpu) {
  if (cpu.tick_armed) return;
  cpu.tick_armed = true;
  const sim::TimeNs base = std::max(cpu.clock.cursor, engine_.now());
  cpu.tick_event =
      engine_.schedule_at(base + tick_period_, [this, &cpu] { on_tick(cpu); });
}

void Machine::on_tick(Cpu& cpu) {
  cpu.tick_armed = false;
  cpu.tick_event = sim::kNoEvent;
  const sim::TimeNs now = engine_.now();
  if (cpu.clock.cursor > now) {
    // Busy in a kernel path: defer the tick to the path boundary.
    cpu.tick_armed = true;
    cpu.tick_event =
        engine_.schedule_at(cpu.clock.cursor, [this, &cpu] { on_tick(cpu); });
    return;
  }
  if (cpu.idle()) return;  // went idle: tickless until next dispatch

  Task& t = *cpu.current;
  const bool was_burst = cpu.in_user_burst;
  if (was_burst) {
    pause_user_burst(cpu, now);
  } else {
    begin_path(cpu);
  }

  kprobe_entry(cpu, probes_.timer_irq);
  cpu.clock.consume_cycles(cfg_.costs.timer_irq);
  ktau_.hidden_pairs(cpu.clock, meas::Group::Irq,
                     cfg_.costs.timer_inner_probes);
  t.slice_remaining =
      t.slice_remaining > tick_period_ ? t.slice_remaining - tick_period_ : 0;
  kprobe_exit(cpu, probes_.timer_irq);

  push_balance(cpu);
  end_kernel_path(cpu);

  if (t.slice_remaining == 0 && !cpu.runqueue.empty()) {
    // Timeslice expired with competition: involuntary context switch.
    preempt_current(cpu);
    return;
  }
  if (t.slice_remaining == 0) t.slice_remaining = cfg_.timeslice;

  arm_tick(cpu);
  if (was_burst) resume_user(cpu);
}

void Machine::push_balance(Cpu& cpu) {
  if (!cfg_.push_balance) return;
  if (++cpu.ticks_since_balance < cfg_.balance_interval_ticks) return;
  cpu.ticks_since_balance = 0;
  if (cpu.runqueue.empty()) return;
  for (CpuId c = 0; c < cpu_count(); ++c) {
    Cpu& other = *cpus_[c];
    if (&other == &cpu || !other.idle() || !other.runqueue.empty()) continue;
    // Migrate the first waiting task allowed on the idle CPU.
    for (auto it = cpu.runqueue.begin(); it != cpu.runqueue.end(); ++it) {
      Task* t = *it;
      if (!mask_allows(t->affinity, c)) continue;
      cpu.runqueue.erase(it);
      enqueue(*t, c, cpu.clock.cursor);
      return;  // one migration per balance pass
    }
  }
}

std::uint64_t Machine::total_context_switches() const {
  std::uint64_t total = 0;
  for (const auto& cpu : cpus_) total += cpu->context_switches;
  return total;
}

}  // namespace ktau::kernel
