// Run once, view many: a memo of Chiba simulations shared by the views of
// one harness pass (DESIGN.md §9).
//
// The paper measures each cluster configuration once and reads that one run
// through many views (Table 2, Figs 3-8).  Several scenarios of the matrix
// ask for the same simulated configuration — fig5_fig6, fig8 and calibrate
// re-run table2's LU trials — so `run_matrix` owns one RunMemo for the
// duration of the call, and view scenarios fetch their runs through
// `shared_run`, which simulates each distinct configuration once and hands
// every later caller the same immutable result.
//
// Correctness rests on key purity: a run's result is a pure function of
// `run_key(cfg)`.  The key is the config itself, compared with the
// defaulted operator== of ChibaRunConfig and its nested parameter structs,
// so every field counts — a field added later included.  `sim_threads` is
// the one field normalized away, because results are byte-identical for
// every shard count (DESIGN.md §11).
//
// Gates that exist to simulate twice (the faults scenario's same-seed
// determinism pair, the engine scenario's timed replay — `bench_matrix
// --filter faults` / `--filter engine`) call `run_chiba` directly and never
// touch the memo.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "experiments/chiba.hpp"

namespace ktau::expt {

/// The canonical form of cfg the memo keys on: `stack` resolved against
/// default_stack_model() (so unset and an explicit default agree) and
/// `sim_threads` zeroed.  Two configs share a run iff their keys compare
/// equal.
ChibaRunConfig run_key(const ChibaRunConfig& cfg);

/// Once-per-key store of simulated runs.  Thread-safe: the first caller of
/// a key (the owner) simulates it; concurrent callers of the same key wait
/// for the owner's result instead of simulating again.  The owner waits on
/// nothing, so there is no deadlock.  A run that throws stores the
/// exception, and every caller of that key rethrows it.
class RunMemo {
 public:
  using Result = std::shared_ptr<const ChibaRunResult>;

  struct Stats {
    std::size_t simulated = 0;  // distinct keys run
    std::size_t reused = 0;     // requests served from an earlier run
  };

  /// The run for cfg's key.  The result's `cfg` is the caller's config.
  Result get(const ChibaRunConfig& cfg);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  // A pass has about a dozen distinct keys, so a linear scan will do.
  std::vector<std::pair<ChibaRunConfig, std::shared_future<Result>>> runs_;
  Stats stats_;
};

/// Makes `memo` the one shared_run uses on the calling thread until the
/// scope ends (the previous binding, usually none, is restored).
/// run_matrix binds its memo on every trial worker this way.
class RunMemoScope {
 public:
  explicit RunMemoScope(RunMemo* memo);
  ~RunMemoScope();
  RunMemoScope(const RunMemoScope&) = delete;
  RunMemoScope& operator=(const RunMemoScope&) = delete;

 private:
  RunMemo* prev_;
};

/// The view scenarios' entry point: the memoized run when a run_matrix call
/// is in progress on this thread, otherwise a fresh run_chiba.
std::shared_ptr<const ChibaRunResult> shared_run(const ChibaRunConfig& cfg);

}  // namespace ktau::expt
