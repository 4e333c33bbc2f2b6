// Host microbenchmarks of the KTAU probe hot path (google-benchmark):
// the real cost, on the machine running it, of one entry/exit pair with
// measurement enabled, runtime-disabled ("Ktau Off") and compiled out
// ("Base"), plus one atomic event.  Engineering sanity numbers next to
// Table 4, whose simulated-cycle figures come from
// `bench_matrix --filter table4`.  Host timings are not deterministic,
// so nothing here feeds a scenario or the JSON document.
//
//   probe_microbench [--benchmark_filter=REGEX] [other google-benchmark flags]
#include <benchmark/benchmark.h>

#include "ktau/system.hpp"

namespace {

using namespace ktau;

void BM_ProbePairEnabled(benchmark::State& state) {
  meas::KtauConfig cfg;
  cfg.charge_overhead = true;
  meas::KtauSystem sys(cfg);
  const auto ev = sys.map_event("bench_event", meas::Group::Syscall);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  for (auto _ : state) {
    sys.entry(clock, &prof, ev);
    sys.exit(clock, &prof, ev);
    benchmark::DoNotOptimize(clock.cursor);
  }
}
BENCHMARK(BM_ProbePairEnabled);

void BM_ProbePairDisabled(benchmark::State& state) {
  meas::KtauConfig cfg;
  cfg.runtime_enabled = meas::kNoGroups;  // the "Ktau Off" fast path
  meas::KtauSystem sys(cfg);
  const auto ev = sys.map_event("bench_event", meas::Group::Syscall);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  for (auto _ : state) {
    sys.entry(clock, &prof, ev);
    sys.exit(clock, &prof, ev);
    benchmark::DoNotOptimize(clock.cursor);
  }
}
BENCHMARK(BM_ProbePairDisabled);

void BM_ProbePairNotCompiled(benchmark::State& state) {
  meas::KtauConfig cfg;
  cfg.compiled_in = false;  // the "Base" kernel
  meas::KtauSystem sys(cfg);
  const auto ev = sys.map_event("bench_event", meas::Group::Syscall);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  for (auto _ : state) {
    sys.entry(clock, &prof, ev);
    sys.exit(clock, &prof, ev);
    benchmark::DoNotOptimize(clock.cursor);
  }
}
BENCHMARK(BM_ProbePairNotCompiled);

void BM_AtomicEvent(benchmark::State& state) {
  meas::KtauSystem sys(meas::KtauConfig{});
  const auto ev = sys.map_event("bench_atomic", meas::Group::Net);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  double v = 0;
  for (auto _ : state) {
    sys.atomic(clock, &prof, ev, v);
    v += 1.0;
  }
}
BENCHMARK(BM_AtomicEvent);

}  // namespace

BENCHMARK_MAIN();
