// The host-performance benchmark's workloads, operations and output checks.
//
// One operation is one call a user makes into the simulator: a single
// expt::run_chiba job, or one expt::run_matrix pass.  The call is timed; the
// simulated results it returns are checked, never timed.  A traced operation
// also records a span around each call the benchmark makes into the program
// and reads the per-layer counters off the returned results (README.md has
// the metric-by-metric table).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/matrixdoc.hpp"
#include "experiments/chiba.hpp"
#include "experiments/harness.hpp"

namespace perfbench {

enum class Workload { LuAnomaly, LuBase, Sweep3dT4, MatrixChiba };

struct WorkloadSpec {
  Workload kind;
  const char* name;
  /// Workload scale (fraction of the paper-length runs) the benchmark uses.
  double scale;
};

/// Every workload the driver runs: those of BENCHMARK.json, and sweep3d_t4,
/// which is run by hand (README.md).
const std::vector<WorkloadSpec>& workloads();

/// nullptr if `name` is not a workload.
const WorkloadSpec* find_workload(std::string_view name);

/// The run_chiba input of a single-run workload.  The seed goes straight
/// into ChibaRunConfig::seed.
ktau::expt::ChibaRunConfig chiba_config(Workload w, std::uint64_t seed,
                                        double scale);

/// The run_matrix input of matrix_chiba: the harness `--seed`, and the
/// document written to `doc_path`.
ktau::expt::MatrixOptions matrix_options(std::uint64_t seed, double scale,
                                         std::string doc_path);

/// A traced interval, in seconds of the steady clock; parent -1 is a root.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

struct OpResult {
  /// Steady-clock time (ns since its epoch) at the first call into the
  /// program; the end of set-up.
  std::int64_t first_call_ns = 0;
  /// Host wall and CPU (all threads) seconds of the call itself.
  double wall_s = 0;
  double cpu_s = 0;
  /// Failed output checks; empty when the operation is correct.
  std::vector<std::string> errors;
  /// What two operations on one seed must agree on.  For matrix_chiba they
  /// are sums over the document's trials, and the document itself.
  std::uint64_t engine_events = 0;
  double exec_sec = 0;
  std::string doc;
  /// Traced operations only: per-layer counters and the recorded spans.
  std::vector<std::pair<std::string, double>> counters;
  std::vector<Span> spans;
};

/// Runs one operation of `w`.  `doc_path` is where matrix_chiba's document
/// is written (and removed again); single runs ignore it.
OpResult run_op(Workload w, std::uint64_t seed, double scale, bool traced,
                const std::string& doc_path);

// Output checks.  Each returns an empty string when the result is right,
// otherwise what is wrong with it.

/// KTAU's diagnosis: the rank with the most involuntary scheduling lives on
/// the anomaly node (ccn10).
std::string check_culprit(const ktau::expt::ChibaRunResult& run);

/// A vanilla-kernel run makes no probe entries.
std::string check_no_probes(const ktau::expt::ChibaRunResult& run);

/// A matrix pass fails no gate, and its document parses (into `parsed`,
/// left empty when it does not).
std::string check_matrix(int failed_gates, std::string_view doc,
                         ktau::analysis::MatrixDoc& parsed);

/// Per-trial host seconds from the harness's info stream
/// (`[scenario/trial done in N ms]` lines).
std::vector<double> trial_seconds(std::string_view info);

}  // namespace perfbench
