// Tests for the run memo (src/experiments/run_memo.*, DESIGN.md §9):
//
//   - key sensitivity: every ChibaRunConfig field but sim_threads changes
//     the key, and an unset stack keys like an explicit default;
//   - once per key: concurrent callers share one simulation, and a run
//     that throws fails every caller of its key without a hang;
//   - shared_run outside run_matrix simulates on every call;
//   - cross-scenario sharing is invisible in the output: fig8's stdout
//     section and document entry from a table2,fig8 pass (--jobs 1 and 4)
//     are byte-identical to a fig8-only pass;
//   - the faults scenario's same-seed pair bypasses the memo, so each pair
//     trial still simulates on its own.
//
// The real table2, fig8 and faults scenarios are linked into this binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/matrixdoc.hpp"
#include "experiments/harness.hpp"
#include "experiments/run_memo.hpp"

namespace ktau::expt {
namespace {

ChibaRunConfig mini() {
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C64x2;
  cfg.workload = Workload::LU;
  cfg.ranks = 16;
  cfg.scale = 0.02;
  return cfg;
}

ChibaRunConfig bad() {
  ChibaRunConfig cfg = mini();
  cfg.ranks = 15;  // odd: cannot split 2 per node, so run_chiba throws
  return cfg;
}

// ---------------------------------------------------------------------------
// Key
// ---------------------------------------------------------------------------

TEST(RunKey, EveryResultFieldChangesTheKey) {
  const ChibaRunConfig base;
  const ChibaRunConfig base_key = run_key(base);
  const std::vector<std::pair<const char*,
                              std::function<void(ChibaRunConfig&)>>>
      edits = {
          {"config", [](auto& c) { c.config = ChibaConfig::C64x2; }},
          {"workload", [](auto& c) { c.workload = Workload::Sweep3D; }},
          {"perturb", [](auto& c) { c.perturb = PerturbMode::Base; }},
          {"ranks", [](auto& c) { c.ranks = 64; }},
          {"seed", [](auto& c) { c.seed = 8; }},
          {"daemons", [](auto& c) { c.daemons = false; }},
          {"stack", [](auto& c) { c.stack = knet::StackKind::Reno; }},
          {"scale", [](auto& c) { c.scale = 0.5; }},
          {"timer_probe_density", [](auto& c) { c.timer_probe_density = 3; }},
          {"tau_inner_pairs", [](auto& c) { c.tau_inner_pairs = 2; }},
          {"smp_dilation_override",
           [](auto& c) { c.smp_dilation_override = 1.0; }},
          {"tcp_cache_penalty_override",
           [](auto& c) { c.tcp_cache_penalty_override = 0; }},
          {"lu_override", [](auto& c) { c.lu_override = apps::LuParams{}; }},
          {"sweep_override",
           [](auto& c) { c.sweep_override = apps::SweepParams{}; }},
          {"tracing", [](auto& c) { c.tracing = true; }},
          {"faults.drop_prob", [](auto& c) { c.faults.drop_prob = 0.01; }},
          {"faults.victims", [](auto& c) { c.faults.victims = {3}; }},
          {"faults.seed", [](auto& c) { c.faults.seed = 1; }},
      };
  for (const auto& [field, edit] : edits) {
    ChibaRunConfig cfg = base;
    edit(cfg);
    EXPECT_NE(run_key(cfg), base_key) << field;
  }

  // Inside an override, every parameter counts too.
  ChibaRunConfig a = base, b = base;
  a.lu_override = apps::LuParams{};
  b.lu_override = apps::LuParams{};
  b.lu_override->iterations += 1;
  EXPECT_NE(run_key(a), run_key(b));
  b.lu_override = a.lu_override;
  b.lu_override->tau.inner_pairs += 1;
  EXPECT_NE(run_key(a), run_key(b));
  b.lu_override = a.lu_override;
  b.lu_override->tau.tracing = true;
  EXPECT_NE(run_key(a), run_key(b));
}

TEST(RunKey, SimThreadsIsLeftOut) {
  ChibaRunConfig a, b;
  b.sim_threads = 4;
  EXPECT_EQ(run_key(a), run_key(b));
}

TEST(RunKey, UnsetStackKeysLikeTheExplicitDefault) {
  ChibaRunConfig unset, explicit_default;
  explicit_default.stack = default_stack_model();
  EXPECT_EQ(run_key(unset), run_key(explicit_default));
}

// ---------------------------------------------------------------------------
// Once per key
// ---------------------------------------------------------------------------

TEST(RunMemo, ConcurrentCallersShareOneRun) {
  RunMemo memo;
  std::vector<RunMemo::Result> got(6);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < got.size(); ++i) {
    pool.emplace_back([&, i] { got[i] = memo.get(mini()); });
  }
  for (auto& t : pool) t.join();
  for (const auto& r : got) EXPECT_EQ(r.get(), got[0].get());
  EXPECT_EQ(memo.stats().simulated, 1u);
  EXPECT_EQ(memo.stats().reused, got.size() - 1);

  // The shared run is the run run_chiba makes.
  const ChibaRunResult fresh = run_chiba(mini());
  EXPECT_EQ(got[0]->exec_sec, fresh.exec_sec);
  EXPECT_EQ(got[0]->engine_events, fresh.engine_events);
}

TEST(RunMemo, CachedResultCarriesTheCallersConfig) {
  RunMemo memo;
  ChibaRunConfig one = mini(), four = mini();
  one.sim_threads = 1;
  four.sim_threads = 4;
  const auto a = memo.get(one);
  const auto b = memo.get(four);
  EXPECT_EQ(memo.stats().simulated, 1u);
  EXPECT_EQ(a->cfg.sim_threads, 1);
  EXPECT_EQ(b->cfg.sim_threads, 4);
  EXPECT_EQ(a->exec_sec, b->exec_sec);
  EXPECT_EQ(a->engine_events, b->engine_events);
}

TEST(RunMemo, ThrowingRunFailsEveryCallerOfItsKey) {
  RunMemo memo;
  std::vector<std::string> errors(6);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    pool.emplace_back([&, i] {
      try {
        memo.get(bad());
      } catch (const std::invalid_argument& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    EXPECT_EQ(e, "run_chiba: rank count incompatible with configuration");
  }
  EXPECT_EQ(memo.stats().simulated, 1u);
  EXPECT_EQ(memo.stats().reused, errors.size() - 1);
}

TEST(SharedRun, OutsideRunMatrixSimulatesEveryCall) {
  const auto a = shared_run(mini());
  const auto b = shared_run(mini());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->engine_events, b->engine_events);
}

TEST(SharedRun, ScopeBindsAndUnbindsTheMemo) {
  RunMemo memo;
  {
    const RunMemoScope bind(&memo);
    const auto a = shared_run(mini());
    const auto b = shared_run(mini());
    EXPECT_EQ(a.get(), b.get());
  }
  EXPECT_EQ(memo.stats().simulated, 1u);
  EXPECT_EQ(memo.stats().reused, 1u);
  shared_run(mini());
  EXPECT_EQ(memo.stats().simulated, 1u) << "scope ended; memo unbound";
}

// ---------------------------------------------------------------------------
// Through run_matrix
// ---------------------------------------------------------------------------

struct Pass {
  std::string out;
  std::string info;
  std::string json;
  int failures = 0;
};

Pass run_pass(std::vector<std::string> filter, int jobs, double scale) {
  MatrixOptions opt;
  opt.filter = std::move(filter);
  opt.jobs = jobs;
  opt.scale = scale;
  const auto json_path =
      std::filesystem::temp_directory_path() /
      ("ktau_test_run_memo_" + std::to_string(::getpid()) + ".json");
  opt.json_path = json_path.string();
  std::ostringstream out, info;
  Pass p;
  p.failures = run_matrix(opt, out, info);
  p.out = out.str();
  p.info = info.str();
  std::ifstream f(json_path);
  std::stringstream ss;
  ss << f.rdbuf();
  p.json = ss.str();
  std::filesystem::remove(json_path);
  return p;
}

std::string memo_line(const std::string& info) {
  const std::size_t at = info.find("[run memo: ");
  if (at == std::string::npos) return "";
  return info.substr(at, info.find('\n', at) - at);
}

/// One scenario's unit in the stdout stream: its header through its report,
/// up to the next unit's header or the gate summary.
std::string stdout_section(const std::string& out, const std::string& name) {
  const std::string sep(58, '=');
  const std::size_t title = out.find("\n" + name + " — ");
  if (title == std::string::npos) return "";
  const std::size_t start = out.rfind(sep, title);
  const std::size_t body = out.find(sep, title) + sep.size();
  const std::size_t end =
      std::min(out.find(sep, body), out.find("\n=== gate summary", body));
  return out.substr(start, end - start);
}

/// One scenario's document entry, re-serialized on its own.
std::string doc_entry(const std::string& json, const std::string& name) {
  const analysis::MatrixDoc doc = analysis::parse_matrix_doc(json);
  analysis::MatrixDoc one;
  for (const auto& sc : doc.scenarios) {
    if (sc.name == name) one.scenarios.push_back(sc);
  }
  EXPECT_EQ(one.scenarios.size(), 1u) << name;
  return analysis::matrix_doc_to_string(one);
}

/// fig8's four LU configurations are all among table2's trials: a
/// table2,fig8 pass simulates them once, and fig8's stdout section and
/// document entry must still match a fig8-only pass byte for byte, at
/// --jobs 1 and --jobs 4.  One test, so the fig8-only reference pass runs
/// once for both.
TEST(RunMemoMatrix, SharedViewsMatchRunningAlone) {
  constexpr double kTiny = 0.005;
  const Pass alone = run_pass({"fig8"}, 4, kTiny);
  EXPECT_EQ(memo_line(alone.info), "[run memo: 4 simulated, 0 reused]");
  const std::string section = stdout_section(alone.out, "fig8");
  ASSERT_FALSE(section.empty());
  const std::string entry = doc_entry(alone.json, "fig8");

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("--jobs " + std::to_string(jobs));
    const Pass shared = run_pass({"table2", "fig8"}, jobs, kTiny);
    EXPECT_EQ(memo_line(shared.info), "[run memo: 10 simulated, 4 reused]");
    EXPECT_EQ(stdout_section(shared.out, "fig8"), section);
    EXPECT_EQ(doc_entry(shared.json, "fig8"), entry);
    // The memo line is host-side information only.
    EXPECT_EQ(shared.out.find("run memo"), std::string::npos);
    EXPECT_EQ(shared.json.find("run memo"), std::string::npos);
  }
}

// Same-seed determinism gates must compare two independent simulations.
TEST(RunMemoMatrix, FaultsPairsBypassTheMemo) {
  const Pass p = run_pass({"faults"}, 2, 0.02);
  EXPECT_EQ(memo_line(p.info), "[run memo: 0 simulated, 0 reused]");
  EXPECT_NE(p.out.find("faults — "), std::string::npos);
}

// A run that throws fails every trial sharing its key — across scenarios and
// workers — exactly as a trial exception fails today.
std::atomic<int> g_throwing_trials{0};

ScenarioSpec throwing_scenario(const std::string& name, int order,
                               int n_trials) {
  ScenarioSpec s;
  s.name = name;
  s.title = "run memo thrower " + name;
  s.order = order;
  s.trials = [n_trials](const ScenarioParams&) {
    std::vector<TrialSpec> trials;
    for (int i = 0; i < n_trials; ++i) {
      // append, not `"t" + std::to_string(i)`: GCC 12 reports a false
      // -Wrestrict on operator+(const char*, string&&) at -O3.
      trials.push_back({std::string("t").append(std::to_string(i)), [] {
                          ++g_throwing_trials;
                          return trial_result(shared_run(bad()));
                        }});
    }
    return trials;
  };
  s.report = [](Report& rep, const ScenarioParams&,
                const std::vector<TrialResult>&) {
    rep.gate("unreached", true);
  };
  return s;
}

[[maybe_unused]] const bool registered =
    register_scenario(throwing_scenario("zz_memo_throw_a", 9100, 3)) &&
    register_scenario(throwing_scenario("zz_memo_throw_b", 9101, 2));

TEST(RunMemoMatrix, ThrowingRunFailsEveryTrialSharingItsKey) {
  g_throwing_trials = 0;
  const Pass p = run_pass({"zz_memo_throw"}, 4, 0.02);
  EXPECT_EQ(g_throwing_trials.load(), 5);
  EXPECT_EQ(memo_line(p.info), "[run memo: 1 simulated, 4 reused]");
  EXPECT_EQ(p.failures, 2) << "one failed 'all trials completed' per unit";
  std::size_t failed = 0;
  const std::string msg =
      " failed: run_chiba: rank count incompatible with configuration\n";
  for (std::size_t at = p.out.find(msg); at != std::string::npos;
       at = p.out.find(msg, at + 1)) {
    ++failed;
  }
  EXPECT_EQ(failed, 5u);
}

}  // namespace
}  // namespace ktau::expt
