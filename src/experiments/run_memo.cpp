#include "experiments/run_memo.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace ktau::expt {

namespace {

thread_local RunMemo* t_memo = nullptr;

}  // namespace

ChibaRunConfig run_key(const ChibaRunConfig& cfg) {
  ChibaRunConfig key = cfg;
  key.stack = cfg.stack.value_or(default_stack_model());
  key.sim_threads = 0;
  return key;
}

RunMemo::Result RunMemo::get(const ChibaRunConfig& cfg) {
  ChibaRunConfig key = run_key(cfg);
  std::promise<Result> owned;
  std::shared_future<Result> run;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(runs_.begin(), runs_.end(),
                           [&](const auto& r) { return r.first == key; });
    if (it == runs_.end()) {
      run = owned.get_future().share();
      runs_.emplace_back(std::move(key), run);
      owner = true;
      ++stats_.simulated;
    } else {
      run = it->second;
      ++stats_.reused;
    }
  }
  if (owner) {
    try {
      owned.set_value(std::make_shared<const ChibaRunResult>(run_chiba(cfg)));
    } catch (...) {
      owned.set_exception(std::current_exception());
    }
  }
  Result result = run.get();  // rethrows the owner's exception
  // The key fixes every field but sim_threads and an unset-vs-default
  // stack, so a sharer may hold a config that differs from the owner's.
  if (result->cfg != cfg) {
    auto copy = std::make_shared<ChibaRunResult>(*result);
    copy->cfg = cfg;
    result = std::move(copy);
  }
  return result;
}

RunMemo::Stats RunMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RunMemoScope::RunMemoScope(RunMemo* memo) : prev_(t_memo) { t_memo = memo; }

RunMemoScope::~RunMemoScope() { t_memo = prev_; }

std::shared_ptr<const ChibaRunResult> shared_run(const ChibaRunConfig& cfg) {
  if (t_memo != nullptr) return t_memo->get(cfg);
  return std::make_shared<const ChibaRunResult>(run_chiba(cfg));
}

}  // namespace ktau::expt
