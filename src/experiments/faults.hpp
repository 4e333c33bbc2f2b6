// Fault-injection scenario: a degraded node inside a healthy cluster.
//
// Runs the same Chiba workload twice — once clean, once with a FaultPlan
// targeting one victim node — and derives the comparison metrics the
// kernel-wide view is supposed to surface (paper §5.1's artificial-daemon
// experiment, generalized): injected interference must show up on the
// victim's snapshot and nowhere else, and the measured steal time must
// agree with what the plan says it injected.
#pragma once

#include <cstdint>

#include "experiments/chiba.hpp"
#include "sim/fault.hpp"

namespace ktau::expt {

/// Default fault mix used by the faults scenario (`bench_matrix --filter
/// faults`) and the tests: packet loss + reorder on the fabric, an
/// IRQ-storm + stolen-cycle load on the victim, and a mild compute
/// slowdown.  Calibration notes live in EXPERIMENTS.md.
sim::FaultConfig chiba_fault_preset();

struct FaultScenarioConfig {
  ChibaConfig config = ChibaConfig::C64x2;
  Workload workload = Workload::LU;
  int ranks = 16;
  double scale = 0.05;
  std::uint64_t seed = 7;
  /// Victim node (clamped to the topology's node count).
  kernel::NodeId victim = 3;
  /// Fault knobs; `victims` is overwritten with the (clamped) victim above.
  sim::FaultConfig faults = chiba_fault_preset();
};

struct FaultScenarioResult {
  ChibaRunResult clean;
  ChibaRunResult faulted;
  kernel::NodeId victim = 0;

  // Derived comparison metrics (all simulated seconds).
  /// Injected-interference time visible on the victim's snapshot vs the
  /// worst healthy node (should be ~0 for the latter).
  double victim_interference_sec = 0;
  double max_other_interference_sec = 0;
  /// Stolen-cycle check: what the plan injected (bursts x duration) vs the
  /// inclusive time the steal_interference KTAU event measured on the
  /// victim.  The measured value sits slightly above the injected one
  /// (do_IRQ prologue + cache disruption ride along the same IRQs).
  double injected_steal_sec = 0;
  double measured_steal_sec = 0;
};

/// Runs the clean + faulted pair and fills in the derived metrics.  The
/// faulted run's spotlight snapshot is the victim node's.
FaultScenarioResult run_fault_scenario(const FaultScenarioConfig& cfg);

}  // namespace ktau::expt
