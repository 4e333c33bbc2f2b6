// Machine: one simulated node — CPUs, scheduler, interrupts, softirqs,
// syscall dispatch, process lifecycle, and the embedded KTAU measurement
// system with its /proc/ktau interface.
//
// Execution model
// ---------------
// The machine runs on the cluster's discrete-event engine.  Each CPU has a
// cursor (Cpu::clock.cursor) marking how far its execution is committed:
//
//   - Kernel code paths (syscalls, interrupt handlers, softirqs, the
//     scheduler) execute in *immediate mode*: their logic runs inside one
//     engine event while consuming simulated cycles on the cursor.  The CPU
//     is busy until the cursor; events that target a busy CPU defer to the
//     cursor (kernel paths are non-preemptible, as in a non-preempt 2.6
//     kernel).
//
//   - User-mode Compute bursts are *interruptible*: a burst schedules its
//     end event, and interrupts/ticks that arrive mid-burst pause it,
//     service the interrupt (charging the current process's KTAU profile —
//     process-centric attribution of asynchronous kernel work, the key KTAU
//     mechanism), and resume the remainder.
//
// Scheduling reproduces what the paper's experiments depend on: voluntary
// switches (blocking) vs involuntary switches (timeslice expiry) are
// instrumented as the distinct KTAU events "schedule_vol" / "schedule"
// (paper §5.1), wake placement prefers idle CPUs with a configurable
// misplacement probability, and a periodic push balancer migrates waiting
// tasks to idle CPUs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/config.hpp"
#include "kernel/cpu.hpp"
#include "kernel/program.hpp"
#include "kernel/task.hpp"
#include "kernel/types.hpp"
#include "ktau/procfs.hpp"
#include "ktau/system.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace ktau::kernel {

/// Interface the network stack (src/knet) implements and installs on a
/// machine.  The stack owns the full kernel send/receive paths including
/// their instrumentation.
class NetStack {
 public:
  virtual ~NetStack() = default;
  virtual SyscallStatus sys_send(Cpu& cpu, Task& t, const SendMsg& m) = 0;
  /// When `allow_block` is false and no data is ready, the read returns
  /// WouldBlock (EAGAIN) instead of blocking — the kernel side of the
  /// MPICH-style spin-then-block receive.
  virtual SyscallStatus sys_recv(Cpu& cpu, Task& t, const RecvMsg& m,
                                 bool allow_block) = 0;
  /// Multiplexed receive over a set of sockets (the reactor primitive):
  /// consume `m.bytes` from the first ready fd in `*m.fds` (writing the
  /// chosen fd to `*m.out_fd`), or block until one becomes ready.
  virtual SyscallStatus sys_recv_any(Cpu& cpu, Task& t, const RecvAny& m) = 0;
};

/// Cached instrumentation-point ids for the kernel's own code paths.
struct KernelProbes {
  meas::EventId schedule;      // involuntary context switch (need_resched)
  meas::EventId schedule_vol;  // voluntary context switch (blocking)
  meas::EventId do_irq;        // hard interrupt wrapper
  meas::EventId timer_irq;     // timer tick handler
  meas::EventId do_softirq;    // bottom-half dispatch
  meas::EventId sys_nanosleep;
  meas::EventId sys_sched_yield;
  meas::EventId sys_getpid;
  meas::EventId page_fault;
  meas::EventId signal_deliver;
};

class Machine : public meas::TaskTable {
 public:
  /// `engine` must outlive the machine (normally owned by Cluster).
  Machine(sim::Engine& engine, NodeId id, const MachineConfig& cfg);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // -- topology / access ------------------------------------------------------

  NodeId id() const { return id_; }
  const std::string& name() const { return cfg_.name; }
  const MachineConfig& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  std::uint32_t cpu_count() const { return static_cast<std::uint32_t>(cpus_.size()); }
  Cpu& cpu(CpuId c) { return *cpus_.at(c); }
  const Cpu& cpu(CpuId c) const { return *cpus_.at(c); }

  meas::KtauSystem& ktau() { return ktau_; }
  const meas::KtauSystem& ktau() const { return ktau_; }
  meas::ProcKtau& proc() { return *proc_; }
  const KernelProbes& probes() const { return probes_; }

  /// Runtime interrupt-routing reconfiguration (the `/proc/irq/*/
  /// smp_affinity` analogue).  Takes effect for subsequently raised
  /// interrupts — the hook adaptive controllers use (paper §6's ZeptoOS
  /// "dynamically adaptive kernel configuration").
  void set_irq_policy(IrqPolicy policy, std::uint32_t target = 0) {
    cfg_.irq_policy = policy;
    cfg_.irq_target = target;
  }
  IrqPolicy irq_policy() const { return cfg_.irq_policy; }

  // -- process lifecycle ---------------------------------------------------------

  /// Creates a process.  The caller installs its program and then calls
  /// launch().  `start_delay` postpones the first enqueue.
  Task& spawn(std::string name, CpuMask affinity = kAllCpus,
              sim::TimeNs start_delay = 0);

  /// Makes a spawned task runnable at its start time.
  void launch(Task& t);

  /// Live task lookup (null if the pid is unknown or the task exited).
  Task* find(Pid pid);

  void set_affinity(Task& t, CpuMask mask) { t.affinity = mask; }

  /// Delivers a signal: instruments signal delivery and wakes the target
  /// from an interruptible sleep.
  void send_signal(Task& t);

  /// Number of live (spawned, not yet exited) tasks.
  std::size_t live_count() const { return by_pid_.size(); }

  // -- TaskTable (the kernel-side task list walked by /proc/ktau) ---------------

  std::vector<meas::TaskSnapshotInput> live_tasks() const override;
  meas::TaskProfile* find_profile(Pid pid) override;
  std::optional<meas::TaskSnapshotInput> find_task(Pid pid) const override;

  // -- kernel-internal API (used by knet and in-kernel services) ----------------

  /// Registers the handler for a softirq vector.
  void register_softirq(SoftirqVec vec, std::function<void(Cpu&)> handler);

  /// Marks a softirq pending on `cpu`; it runs when the current kernel path
  /// ends (or immediately via an interrupt if the CPU is idle).
  void raise_softirq(Cpu& cpu, SoftirqVec vec);

  /// Registers a device interrupt handler (request_irq).  The returned id
  /// is used by raise_device_irq; registration happens once at driver
  /// init, keeping the per-interrupt hot path allocation-free.
  using IrqLine = std::uint32_t;
  IrqLine register_irq(meas::EventId handler_event,
                       std::function<void(Cpu&)> handler);

  /// Delivers a device interrupt: the IRQ controller picks a CPU per the
  /// configured policy and the handler runs in interrupt context there
  /// (wrapped in do_IRQ + the line's handler-event instrumentation).  A
  /// line is pending at most once per CPU: a raise whose line is already
  /// held on the target CPU is absorbed (Cpu::irq_pending), and the held
  /// delivery's handler serves it.
  void raise_device_irq(IrqLine line);

  /// Blocks the currently running task (call from inside a syscall path).
  /// Records the voluntary-scheduling event and frees the CPU.
  void block_current(Cpu& cpu, Task& t);

  /// Wakes a blocked task at simulated time `when` (the waking path's
  /// cursor position).  No-op if the task is not blocked.
  void wake(Task& t, sim::TimeNs when);

  /// Interrupts a task that is spinning in a receive poll: the data it is
  /// polling for has arrived, so the spin burst is cut short and the
  /// receive retried immediately.  No-op if the task stopped spinning.
  void poke_spinner(Task& t, sim::TimeNs when);

  /// Installs the network stack (knet).  Must be called before programs
  /// use SendMsg/RecvMsg actions.
  void install_net(NetStack* net) { net_ = net; }
  NetStack* net() { return net_; }

  // -- instrumentation helpers (charge the context profile of `cpu`) -------------

  meas::TaskProfile* context_profile(Cpu& cpu) {
    return cpu.current != nullptr ? &cpu.current->prof : &cpu.idle_prof;
  }
  void kprobe_entry(Cpu& cpu, meas::EventId ev) {
    ktau_.entry(cpu.clock, context_profile(cpu), ev);
  }
  void kprobe_exit(Cpu& cpu, meas::EventId ev) {
    ktau_.exit(cpu.clock, context_profile(cpu), ev);
  }
  void katomic(Cpu& cpu, meas::EventId ev, double value) {
    ktau_.atomic(cpu.clock, context_profile(cpu), ev, value);
  }

  /// Runs a generic non-blocking syscall path: entry cost + `body_cycles` +
  /// exit cost, wrapped in the event's entry/exit probes.
  void run_syscall_path(Cpu& cpu, meas::EventId ev, std::uint64_t body_cycles);

  /// After a syscall body completes while the task remains runnable:
  /// finish the kernel path (softirqs) and schedule the task's next action.
  void complete_action(Cpu& cpu, Task& t);

  sim::Rng& rng() { return rng_; }

  // -- counters -------------------------------------------------------------------

  std::uint64_t total_context_switches() const;

 private:
  friend class Cluster;

  // scheduling core
  void enqueue(Task& t, CpuId target, sim::TimeNs when);
  CpuId place(Task& t);
  void schedule_dispatch(Cpu& cpu, sim::TimeNs when);
  void dispatch(Cpu& cpu);
  void preempt_current(Cpu& cpu);
  /// Preempts cpu's current task in favour of a freshly woken one
  /// (sleeper-boost wake preemption), deferring past kernel paths.
  void try_preempt(Cpu& cpu, sim::TimeNs when);
  void switch_out_common(Cpu& cpu, Task& t, meas::EventId sched_event);

  // program advancement
  void advance_task(Cpu& cpu);
  void schedule_advance(Cpu& cpu, Task& t);
  /// SMP memory-contention dilation for a burst starting on `self` now.
  double dilation_factor(const Cpu& self);
  void start_user_burst(Cpu& cpu, Task& t);
  void pause_user_burst(Cpu& cpu, sim::TimeNs at);
  void on_burst_end(Cpu& cpu);
  /// Resumes or completes the current task's user work after an interrupt.
  void resume_user(Cpu& cpu);
  void do_nanosleep(Cpu& cpu, Task& t, sim::TimeNs duration);
  void do_yield(Cpu& cpu, Task& t);
  void do_exit(Cpu& cpu, Task& t);
  void deliver_pending_signals(Cpu& cpu, Task& t);

  // interrupts / ticks
  void arm_tick(Cpu& cpu);
  void on_tick(Cpu& cpu);
  void deliver_irq(Cpu& cpu, IrqLine line);
  void do_softirqs(Cpu& cpu);
  void end_kernel_path(Cpu& cpu);
  void push_balance(Cpu& cpu);

  /// Raises the CPU cursor to the current engine time.
  void begin_path(Cpu& cpu) {
    if (cpu.clock.cursor < engine_.now()) cpu.clock.cursor = engine_.now();
  }

  sim::Engine& engine_;
  NodeId id_;
  MachineConfig cfg_;
  sim::TimeNs tick_period_;
  sim::Rng rng_;

  meas::KtauSystem ktau_;
  KernelProbes probes_{};
  std::unique_ptr<meas::ProcKtau> proc_;

  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::uint32_t irq_rr_next_ = 0;  // round-robin cursor for IrqPolicy::RoundRobin

  Pid next_pid_ = 100;
  std::vector<std::unique_ptr<Task>> tasks_;  // owns all tasks ever spawned
  std::unordered_map<Pid, Task*> by_pid_;     // live tasks only

  std::array<std::function<void(Cpu&)>, kSoftirqCount> softirq_handlers_{};

  struct IrqLineEntry {
    meas::EventId event;
    std::function<void(Cpu&)> handler;
  };
  std::vector<IrqLineEntry> irq_lines_;

  NetStack* net_ = nullptr;
};

}  // namespace ktau::kernel
