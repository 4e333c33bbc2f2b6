#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>

#include "analysis/matrixdoc.hpp"
#include "analysis/netstat.hpp"

namespace perfbench {

namespace expt = ktau::expt;

namespace {

// LU runs at least 3 iterations and Sweep3D at least 2 whatever the scale,
// so lu_anomaly and every matrix trial sit at that floor.  lu_base is sized
// to a similar second or so per operation, so a run reports the median of
// many.  sweep3d_t4 is not in BENCHMARK.json: its wall time swings 3-4x
// with hypervisor steal on a shared host (README.md, "Run lengths").
const std::vector<WorkloadSpec> kWorkloads = {
    {Workload::LuAnomaly, "lu_anomaly", 0.01},
    {Workload::LuBase, "lu_base", 0.05},
    {Workload::Sweep3dT4, "sweep3d_t4", 0.06},
    {Workload::MatrixChiba, "matrix_chiba", 0.005},
};

// The scenarios of matrix_chiba, and its trial-execution threads.
constexpr const char* kMatrixScenarios[] = {"table2", "fig3", "fig5_fig6",
                                            "fig8", "calibrate"};
constexpr int kMatrixJobs = 4;

double seconds_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Records spans only when tracing; otherwise every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, parent,
                      seconds_since_epoch(std::chrono::steady_clock::now()), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    if (!on_) return 0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since_epoch(std::chrono::steady_clock::now());
    return s.end_s - s.start_s;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Times the call `f` makes into the program: wall and process CPU seconds.
template <typename F>
void timed_call(OpResult& r, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = process_cpu_s();
  r.first_call_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t0.time_since_epoch())
                        .count();
  f();
  const double c1 = process_cpu_s();
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  r.cpu_s = c1 - c0;
}

void run_single(Workload w, std::uint64_t seed, double scale, bool traced,
                OpResult& r) {
  const expt::ChibaRunConfig cfg = chiba_config(w, seed, scale);
  Tracer tr(traced);
  const int op = tr.open("op", -1);
  expt::ChibaRunResult run;
  const int call = tr.open("experiments.run_chiba", op);
  timed_call(r, [&] { run = expt::run_chiba(cfg); });
  const double call_s = tr.close(call);

  r.engine_events = run.engine_events;
  r.exec_sec = run.exec_sec;

  const int check = tr.open("check", op);
  std::string err;
  if (w == Workload::LuAnomaly) err = check_culprit(run);
  if (w == Workload::LuBase) err = check_no_probes(run);
  if (!err.empty()) r.errors.push_back(err);
  tr.close(check);

  if (traced) {
    const int net = tr.open("analysis.net_counter_totals", op);
    const auto totals = ktau::analysis::net_counter_totals(run.net_nodes);
    tr.close(net);
    std::uint64_t tcp_calls = 0, recv_calls = 0;
    for (const auto& rs : run.ranks) {
      tcp_calls += rs.tcp_calls;
      recv_calls += rs.recv_calls;
    }
    const double events = static_cast<double>(run.engine_events);
    const double probes = static_cast<double>(run.overhead_samples);
    r.counters = {
        {"sim.events", events},
        {"sim.events_per_s", events / call_s},
        {"ktau.probe_entries", probes},
        {"ktau.probes_per_event", events > 0 ? probes / events : 0},
        {"knet.rx_segments", static_cast<double>(totals.rx_segments)},
        {"knet.rx_penalized", static_cast<double>(totals.rx_penalized)},
        {"knet.retransmits", static_cast<double>(totals.retransmits)},
        {"knet.tcp_calls", static_cast<double>(tcp_calls)},
        {"tau.recv_calls", static_cast<double>(recv_calls)},
        // One job is one trial, run by one thread.
        {"experiments.trials", 1},
        {"experiments.trial_s_sum", call_s},
        {"experiments.trial_s_max", call_s},
        {"experiments.parallel_eff", call_s / r.wall_s},
        // run_chiba emits no document.
        {"analysis.doc_bytes", 0},
        {"analysis.doc_parse_s", 0},
    };
  }
  tr.close(op);
  r.spans = tr.take();
}

void run_matrix_pass(std::uint64_t seed, double scale, bool traced,
                     const std::string& doc_path, OpResult& r) {
  const expt::MatrixOptions opt = matrix_options(seed, scale, doc_path);
  Tracer tr(traced);
  const int op = tr.open("op", -1);
  std::ostringstream out, info;
  int failed_gates = 0;
  const int call = tr.open("experiments.run_matrix", op);
  timed_call(r, [&] { failed_gates = expt::run_matrix(opt, out, info); });
  tr.close(call);

  {
    std::ifstream f(doc_path, std::ios::binary);
    r.doc.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  std::remove(doc_path.c_str());

  ktau::analysis::MatrixDoc doc;
  const int parse = tr.open("analysis.parse_matrix_doc", op);
  const std::string err = check_matrix(failed_gates, r.doc, doc);
  double parse_s = tr.close(parse);
  if (!err.empty()) r.errors.push_back(err);
  const int stats = tr.open("analysis.doc_metric_stats", op);
  const auto metric_stats = ktau::analysis::doc_metric_stats(doc);
  parse_s += tr.close(stats);

  for (const auto& m : metric_stats) {
    if (m.metric == "engine_events") {
      r.engine_events += static_cast<std::uint64_t>(std::llround(m.median));
    }
    if (m.metric == "exec_sec") r.exec_sec += m.median;
  }

  if (traced) {
    const std::vector<double> trials = trial_seconds(info.str());
    double sum = 0, max = 0;
    for (double t : trials) {
      sum += t;
      max = std::max(max, t);
    }
    const double events = static_cast<double>(r.engine_events);
    r.counters = {
        // Only table2's trials put engine_events in the document.
        {"sim.events", events},
        {"sim.events_per_s", events / r.wall_s},
        // run_matrix hands back no ChibaRunResult to read these from.
        {"ktau.probe_entries", 0},
        {"ktau.probes_per_event", 0},
        {"knet.rx_segments", 0},
        {"knet.rx_penalized", 0},
        {"knet.retransmits", 0},
        {"knet.tcp_calls", 0},
        {"tau.recv_calls", 0},
        {"experiments.trials", static_cast<double>(trials.size())},
        {"experiments.trial_s_sum", sum},
        {"experiments.trial_s_max", max},
        {"experiments.parallel_eff", sum / (r.wall_s * kMatrixJobs)},
        {"analysis.doc_bytes", static_cast<double>(r.doc.size())},
        {"analysis.doc_parse_s", parse_s},
    };
  }
  tr.close(op);
  r.spans = tr.take();
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

expt::ChibaRunConfig chiba_config(Workload w, std::uint64_t seed,
                                  double scale) {
  expt::ChibaRunConfig cfg;
  cfg.workload = expt::Workload::LU;
  cfg.ranks = 128;
  cfg.seed = seed;
  cfg.scale = scale;
  cfg.sim_threads = 1;
  switch (w) {
    case Workload::LuAnomaly:
      cfg.config = expt::ChibaConfig::C64x2Anomaly;
      cfg.perturb = expt::PerturbMode::ProfAllTau;
      break;
    case Workload::LuBase:
      cfg.config = expt::ChibaConfig::C64x2Anomaly;
      cfg.perturb = expt::PerturbMode::Base;
      break;
    case Workload::Sweep3dT4:
      cfg.config = expt::ChibaConfig::C128x1;
      cfg.workload = expt::Workload::Sweep3D;
      cfg.perturb = expt::PerturbMode::ProfAllTau;
      cfg.sim_threads = 4;
      break;
    case Workload::MatrixChiba:
      break;
  }
  return cfg;
}

expt::MatrixOptions matrix_options(std::uint64_t seed, double scale,
                                   std::string doc_path) {
  expt::MatrixOptions opt;
  opt.filter.assign(std::begin(kMatrixScenarios), std::end(kMatrixScenarios));
  opt.scale = scale;
  opt.jobs = kMatrixJobs;
  opt.seed = seed;
  opt.seed_set = true;
  opt.json_path = std::move(doc_path);
  return opt;
}

OpResult run_op(Workload w, std::uint64_t seed, double scale, bool traced,
                const std::string& doc_path) {
  OpResult r;
  if (w == Workload::MatrixChiba) {
    run_matrix_pass(seed, scale, traced, doc_path, r);
  } else {
    run_single(w, seed, scale, traced, r);
  }
  return r;
}

std::string check_culprit(const expt::ChibaRunResult& run) {
  if (run.ranks.empty()) return "culprit: no ranks in the result";
  std::size_t worst = 0;
  for (std::size_t i = 1; i < run.ranks.size(); ++i) {
    if (run.ranks[i].invol_sched_sec > run.ranks[worst].invol_sched_sec) {
      worst = i;
    }
  }
  const auto node = expt::chiba_node_of_rank(
      run.cfg.config, static_cast<int>(worst), run.cfg.ranks);
  if (node == expt::kAnomalyNode) return {};
  return "culprit: rank " + std::to_string(worst) +
         " with the most involuntary scheduling lives on node " +
         std::to_string(node) + ", not the anomaly node " +
         std::to_string(expt::kAnomalyNode);
}

std::string check_no_probes(const expt::ChibaRunResult& run) {
  if (run.overhead_samples == 0) return {};
  return "no probes: the vanilla kernel made " +
         std::to_string(run.overhead_samples) + " probe entries";
}

std::string check_matrix(int failed_gates, std::string_view doc,
                         ktau::analysis::MatrixDoc& parsed) {
  try {
    parsed = ktau::analysis::parse_matrix_doc(doc);
  } catch (const std::exception& e) {
    parsed = {};
    return std::string("matrix: the document does not parse: ") + e.what();
  }
  if (failed_gates != 0) {
    return "matrix: " + std::to_string(failed_gates) + " failed gate(s)";
  }
  if (parsed.failures != 0) return "matrix: the document records failures";
  if (parsed.scenarios.empty()) return "matrix: the document has no scenario";
  return {};
}

std::vector<double> trial_seconds(std::string_view info) {
  std::vector<double> out;
  constexpr std::string_view kDone = " done in ";
  for (std::size_t pos = info.find(kDone); pos != std::string_view::npos;
       pos = info.find(kDone, pos + kDone.size())) {
    const std::size_t num = pos + kDone.size();
    std::size_t end = num;
    while (end < info.size() && info[end] >= '0' && info[end] <= '9') ++end;
    if (end == num || info.substr(end, 3) != " ms") continue;
    out.push_back(1e-3 * std::stod(std::string(info.substr(num, end - num))));
  }
  return out;
}

}  // namespace perfbench
