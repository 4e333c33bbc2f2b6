// Tests of the benchmark itself: every output check rejects a wrong result,
// the multi-threaded workload simulates what one thread does, and a traced
// operation simulates what an untraced one does.
#include <gtest/gtest.h>

#include <string>

#include "workloads.hpp"

namespace {

namespace expt = ktau::expt;
using perfbench::Workload;

// Tiny scales: the tests check agreement, not the workloads' own checks.
constexpr double kTinyScale = 0.002;

/// A result on lu_anomaly's configuration whose most-descheduled rank lives
/// on `node` (the simulator is not run).
expt::ChibaRunResult run_with_culprit_on(ktau::kernel::NodeId node) {
  expt::ChibaRunResult run;
  run.cfg = perfbench::chiba_config(Workload::LuAnomaly, 7, kTinyScale);
  run.ranks.resize(static_cast<std::size_t>(run.cfg.ranks));
  for (int rank = 0; rank < run.cfg.ranks; ++rank) {
    auto& rs = run.ranks[static_cast<std::size_t>(rank)];
    rs.invol_sched_sec = 0.5;
    if (expt::chiba_node_of_rank(run.cfg.config, rank, run.cfg.ranks) == node) {
      rs.invol_sched_sec = 2.0;
    }
  }
  return run;
}

std::string doc_with_failures(int failures) {
  ktau::analysis::MatrixDoc doc;
  doc.failures = failures;
  ktau::analysis::ScenarioEntry sc;
  sc.name = "table2";
  sc.title = "t";
  sc.scale = 0.01;
  sc.repeats.push_back({});
  doc.scenarios.push_back(sc);
  return ktau::analysis::matrix_doc_to_string(doc);
}

TEST(PerfbenchChecks, CulpritMustBeOnTheAnomalyNode) {
  EXPECT_EQ(perfbench::check_culprit(run_with_culprit_on(expt::kAnomalyNode)),
            "");
  EXPECT_NE(perfbench::check_culprit(run_with_culprit_on(0)), "");
  EXPECT_NE(perfbench::check_culprit(run_with_culprit_on(expt::kAnomalyNode - 1)),
            "");
  EXPECT_NE(perfbench::check_culprit(expt::ChibaRunResult{}), "");
}

TEST(PerfbenchChecks, VanillaKernelMakesNoProbes) {
  expt::ChibaRunResult run;
  EXPECT_EQ(perfbench::check_no_probes(run), "");
  run.overhead_samples = 3;
  EXPECT_NE(perfbench::check_no_probes(run), "");
}

TEST(PerfbenchChecks, MatrixNeedsZeroFailedGatesAndAParsingDocument) {
  const std::string good = doc_with_failures(0);
  ktau::analysis::MatrixDoc parsed;
  EXPECT_EQ(perfbench::check_matrix(0, good, parsed), "");
  EXPECT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_NE(perfbench::check_matrix(1, good, parsed), "");
  EXPECT_NE(perfbench::check_matrix(0, doc_with_failures(2), parsed), "");
  EXPECT_NE(perfbench::check_matrix(0, good.substr(0, good.size() / 2), parsed),
            "");
  EXPECT_TRUE(parsed.scenarios.empty());
  EXPECT_NE(perfbench::check_matrix(0, "", parsed), "");
}

TEST(PerfbenchChecks, TrialSecondsReadTheHarnessInfoStream) {
  const auto t = perfbench::trial_seconds(
      "  [table2/LU/128x1 done in 1500 ms]\n"
      "  [fig3/anomaly_lu done in 20 ms — ERROR: boom]\n"
      "wrote doc.json\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0], 1.5);
  EXPECT_DOUBLE_EQ(t[1], 0.02);
}

TEST(PerfbenchWorkloads, Sweep3dOnFourThreadsEqualsOneThread) {
  auto cfg = perfbench::chiba_config(Workload::Sweep3dT4, 11, kTinyScale);
  ASSERT_EQ(cfg.sim_threads, 4);
  const auto four = expt::run_chiba(cfg);
  cfg.sim_threads = 1;
  const auto one = expt::run_chiba(cfg);
  EXPECT_GT(four.engine_events, 0u);
  EXPECT_EQ(four.engine_events, one.engine_events);
  EXPECT_EQ(four.exec_sec, one.exec_sec);
  ASSERT_EQ(four.ranks.size(), one.ranks.size());
  for (std::size_t i = 0; i < one.ranks.size(); ++i) {
    EXPECT_EQ(four.ranks[i].exec_sec, one.ranks[i].exec_sec) << "rank " << i;
  }
}

TEST(PerfbenchWorkloads, TracedAndUntracedOperationsAgree) {
  for (const auto& w : perfbench::workloads()) {
    SCOPED_TRACE(w.name);
    const std::string doc =
        std::string("perfbench-test-") + w.name + ".json";
    const auto plain = perfbench::run_op(w.kind, 5, kTinyScale, false, doc);
    const auto traced = perfbench::run_op(w.kind, 5, kTinyScale, true, doc);
    EXPECT_GT(plain.engine_events, 0u);
    EXPECT_EQ(plain.engine_events, traced.engine_events);
    EXPECT_EQ(plain.exec_sec, traced.exec_sec);
    EXPECT_EQ(plain.doc, traced.doc);
    EXPECT_TRUE(plain.counters.empty());
    EXPECT_TRUE(plain.spans.empty());
    EXPECT_EQ(traced.counters.size(), 15u);
    ASSERT_FALSE(traced.spans.empty());
    EXPECT_EQ(traced.spans.front().name, "op");
  }
}

}  // namespace
