// Calibration utility (not a paper artifact): runs scaled-down Chiba
// configurations and prints simulated execution times, so the workload
// definitions can be tuned against the paper's Table 2.  Host wall time per
// run shows up on stderr via the runner's per-trial progress lines (run
// alone; inside a matrix pass with table2 its runs come from the run memo).
#include <algorithm>
#include <vector>

#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

constexpr ChibaConfig kConfigs[] = {
    ChibaConfig::C128x1, ChibaConfig::C64x2Anomaly, ChibaConfig::C64x2,
    ChibaConfig::C64x2Pinned, ChibaConfig::C64x2PinIbal};

std::vector<TrialSpec> calibrate_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  for (const auto config : kConfigs) {
    ChibaRunConfig cfg;
    cfg.config = config;
    cfg.workload = Workload::LU;
    cfg.ranks = 128;
    cfg.scale = p.scale;
    cfg.seed = p.seed(cfg.seed);
    trials.push_back({config_name(config), [cfg] {
                        const auto result = shared_run(cfg);
                        double vol_med = 0, invol_med = 0, irq_max = 0;
                        std::vector<double> vols, invols;
                        for (const auto& rs : result->ranks) {
                          vols.push_back(rs.vol_sched_sec);
                          invols.push_back(rs.invol_sched_sec);
                          irq_max = std::max(irq_max, rs.irq_sec);
                        }
                        std::sort(vols.begin(), vols.end());
                        std::sort(invols.begin(), invols.end());
                        vol_med = vols[vols.size() / 2];
                        invol_med = invols[invols.size() / 2];
                        return trial_result(result->exec_sec,
                                            {{"exec_sec", result->exec_sec},
                                             {"vol_med", vol_med},
                                             {"invol_med", invol_med},
                                             {"irq_max", irq_max}});
                      }});
  }
  return trials;
}

void calibrate_report(Report& rep, const ScenarioParams&,
                      const std::vector<TrialResult>& results) {
  const double base = payload<double>(results[0]);
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const auto& m = results[i].metrics;
    auto metric = [&](const char* name) {
      for (const auto& [k, v] : m) {
        if (k == name) return v;
      }
      return 0.0;
    };
    rep.printf(
        "%-18s exec=%8.2f s  (+%6.1f%%)  vol_med=%8.2f invol_med=%7.3f "
        "irq_max=%6.3f\n",
        config_name(kConfigs[i]).c_str(), metric("exec_sec"),
        base > 0 ? (metric("exec_sec") - base) / base * 100.0 : 0.0,
        metric("vol_med"), metric("invol_med"), metric("irq_max"));
  }
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "calibrate",
     .title = "Calibration: Chiba configurations vs Table 2 "
              "(128 ranks, NPB LU)",
     .default_scale = kDefaultScale,
     .order = 80,
     .trials = calibrate_trials,
     .report = calibrate_report});

}  // namespace
}  // namespace ktau::expt
