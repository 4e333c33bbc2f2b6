// Engine scenarios (no paper table/figure — simulator infrastructure).
//
//   engine        a miniature chiba run replayed through the full simulated
//                 stack (scheduler, IRQs, TCP, MPI, KTAU probes) on the
//                 live engine; the gate is that it drives events, and the
//                 host wall clock and events/s go to stderr only.
//   engine_scale  the conservative parallel scheduler on a synthetic ring
//                 cluster across a fixed shard sweep (see below).
//
// The engine's ordering and cancellation semantics are checked against a
// reference model in tests/test_sim_engine.cpp, not here.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "experiments/harness.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

namespace ktau::expt {
namespace {

using sim::TimeNs;

struct ReplayOutcome {
  std::uint64_t engine_events = 0;
  double wall_sec = 0;  // host timing; stderr only
};

std::vector<TrialSpec> engine_trials(const ScenarioParams& p) {
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C64x2;
  cfg.workload = Workload::LU;
  cfg.ranks = 16;
  cfg.scale = 0.04 * p.scale;
  cfg.seed = p.seed(5);
  return {{"replay", [cfg] {
             const auto t0 = std::chrono::steady_clock::now();
             const auto run = run_chiba(cfg);
             const auto t1 = std::chrono::steady_clock::now();
             ReplayOutcome r;
             r.engine_events = run.engine_events;
             r.wall_sec = std::chrono::duration<double>(t1 - t0).count();
             return trial_result(
                 r, {{"engine_events", static_cast<double>(r.engine_events)}});
           }}};
}

void engine_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  const auto& replay = payload<ReplayOutcome>(results[0]);
  rep.printf("\nreplay chiba 64x2 LU x16 (full stack): %llu engine events\n",
             static_cast<unsigned long long>(replay.engine_events));
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  [replay: %.2f s host wall = %.2f M ev/s]\n",
                  replay.wall_sec,
                  replay.wall_sec > 0
                      ? static_cast<double>(replay.engine_events) /
                            replay.wall_sec / 1e6
                      : 0.0);
    rep.info() << line;
  }
  rep.printf("\n");
  rep.gate("replay drives the full stack", replay.engine_events > 0);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "engine",
     .title = "Engine replay: miniature chiba LU run through the full "
              "stack",
     .default_scale = 1.0,
     .order = 90,
     .trials = engine_trials,
     .report = engine_report});

// ---------------------------------------------------------------------------
// Node-scale scenario: the conservative parallel scheduler on a synthetic
// ring cluster.
//
// N independent "nodes" (round-robin across the shard count under test)
// each run a dense self-rescheduling tick stream (1 µs spacing, a hash
// work-loop per tick) and periodically send order-sensitive messages to
// their +1 and +3 ring neighbours with exactly one link latency of delay —
// the same lookahead structure as the real knet fabric, at a density where
// each 70 µs epoch holds tens of events per node.  Every run is executed at
// a FIXED shard sweep {1,2,4,8} so stdout never depends on --sim-threads;
// the deterministic gates are checksum/executed/epoch equality across the
// sweep plus zero pool/mailbox growth after reserve(), and the wall-clock
// speedup (host-dependent) goes to stderr only.
// ---------------------------------------------------------------------------

constexpr TimeNs kScaleLookahead = 70 * sim::kMicrosecond;
constexpr TimeNs kScaleSpacing = 1 * sim::kMicrosecond;

struct ScaleNode {
  std::uint64_t state = 0;
  std::uint64_t ticks = 0;
};

struct ScaleCtx {
  sim::ShardedEngine* se = nullptr;
  std::vector<ScaleNode>* nodes = nullptr;
  unsigned shards = 1;
  std::uint32_t n = 0;
  TimeNs stop = 0;
};

// Order-sensitive fold (multiply-xor-mix): commits arriving in a different
// order produce a different state, so the cross-sweep checksum gate really
// checks the canonical commit order, not just message delivery.
std::uint64_t fold(std::uint64_t state, std::uint64_t v) {
  std::uint64_t z = state * 0x9E3779B97F4A7C15ull + v;
  z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 32);
}

void scale_tick(ScaleCtx* c, std::uint32_t id) {
  sim::Engine& e = c->se->shard(id % c->shards);
  ScaleNode& nd = (*c->nodes)[id];
  // The parallelizable per-event compute: a short hash chain.
  std::uint64_t s = nd.state;
  for (int i = 0; i < 24; ++i) s = fold(s, id);
  nd.state = s;
  ++nd.ticks;
  const auto send_to = [&](std::uint32_t dst) {
    const std::uint64_t payload = nd.state ^ dst;
    ScaleCtx* ctx = c;
    c->se->cross_schedule(id % c->shards, id, dst % c->shards,
                          e.now() + kScaleLookahead, [ctx, dst, payload] {
                            ScaleNode& peer = (*ctx->nodes)[dst];
                            peer.state = fold(peer.state, payload);
                          });
  };
  if (nd.ticks % 16 == 0) send_to((id + 1) % c->n);
  if (nd.ticks % 24 == 0) send_to((id + 3) % c->n);
  if (e.now() + kScaleSpacing <= c->stop) {
    e.schedule_after(kScaleSpacing,
                     [c, id] { scale_tick(c, id); });
  }
}

struct ScaleRun {
  std::uint64_t checksum = 0;
  std::uint64_t executed = 0;
  std::uint64_t epochs = 0;
  std::uint64_t grows = 0;  // pool + mailbox growth after reserve()
  double wall_sec = 0;      // host timing; stderr only
};

ScaleRun run_node_scale(std::uint32_t n, unsigned shards, TimeNs horizon) {
  sim::ShardedEngine se(shards, kScaleLookahead);
  se.reserve(16 * (n / shards) + 1024, 8 * (n / shards) + 256);
  std::vector<ScaleNode> nodes(n);
  ScaleCtx ctx{&se, &nodes, se.shards(), n, horizon};
  for (std::uint32_t id = 0; id < n; ++id) {
    std::uint64_t seed = id + 1;
    nodes[id].state = sim::splitmix64(seed);
    // Staggered start offsets decorrelate the tick grid a little while
    // staying a pure function of the node id.
    const TimeNs offset = (id * 7919u) % kScaleSpacing;
    ScaleCtx* c = &ctx;
    se.shard(id % se.shards())
        .schedule_at(offset, [c, id] { scale_tick(c, id); });
  }
  ScaleRun r;
  const auto t0 = std::chrono::steady_clock::now();
  se.run_until(horizon);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  r.executed = se.executed_total();
  r.epochs = se.epochs();
  r.grows = se.pool_grows_total() + se.mailbox_grows();
  std::uint64_t sum = 0;
  for (const ScaleNode& nd : nodes) sum = fold(sum, nd.state ^ nd.ticks);
  r.checksum = sum;
  return r;
}

constexpr unsigned kShardSweep[] = {1, 2, 4, 8};

struct ScaleOutcome {
  std::uint32_t nodes = 0;
  ScaleRun runs[std::size(kShardSweep)];
  bool repeat_stable = true;  // best-of-2 passes agreed bit for bit
};

ScaleOutcome run_scale_size(std::uint32_t n, double scale) {
  // Horizon: enough simulated time for ~2M * scale events, never fewer
  // than four full epochs so the epoch protocol is actually exercised.
  const double target = 2e6 * std::max(scale, 1e-3);
  const auto us = static_cast<TimeNs>(target / n);
  const TimeNs horizon =
      std::max<TimeNs>(4 * kScaleLookahead, us * sim::kMicrosecond);
  ScaleOutcome out;
  out.nodes = n;
  for (std::size_t i = 0; i < std::size(kShardSweep); ++i) {
    ScaleRun best = run_node_scale(n, kShardSweep[i], horizon);
    const ScaleRun again = run_node_scale(n, kShardSweep[i], horizon);
    out.repeat_stable = out.repeat_stable &&
                        again.checksum == best.checksum &&
                        again.executed == best.executed;
    best.wall_sec = std::min(best.wall_sec, again.wall_sec);
    out.runs[i] = best;
  }
  return out;
}

std::vector<TrialSpec> engine_scale_trials(const ScenarioParams& p) {
  std::vector<std::uint32_t> sizes = {1024, 4096};
  if (p.scale >= 2.0) sizes.push_back(16384);
  std::vector<TrialSpec> trials;
  for (const std::uint32_t n : sizes) {
    trials.push_back({"nodes_" + std::to_string(n), [n, scale = p.scale] {
                        auto r = run_scale_size(n, scale);
                        return trial_result(
                            std::move(r),
                            {{"events",
                              static_cast<double>(r.runs[0].executed)}});
                      }});
  }
  return trials;
}

void engine_scale_report(Report& rep, const ScenarioParams&,
                         const std::vector<TrialResult>& results) {
  rep.printf("conservative parallel scheduler, ring cluster, shard sweep "
             "{1,2,4,8}, lookahead 70 us\n\n");
  for (const TrialResult& res : results) {
    const auto& o = payload<ScaleOutcome>(res);
    rep.printf("nodes=%-6u events %llu  epochs %llu  checksum %016llx\n",
               o.nodes, static_cast<unsigned long long>(o.runs[0].executed),
               static_cast<unsigned long long>(o.runs[0].epochs),
               static_cast<unsigned long long>(o.runs[0].checksum));
    // Wall clock and speedup are host-dependent: stderr only.
    char line[200];
    std::snprintf(
        line, sizeof(line),
        "  [nodes=%u walls s1=%.3f s2=%.3f s4=%.3f s8=%.3f — speedup "
        "s4 vs s1 %.2fx; target >= 2x given >= 4 host cores]\n",
        o.nodes, o.runs[0].wall_sec, o.runs[1].wall_sec, o.runs[2].wall_sec,
        o.runs[3].wall_sec,
        o.runs[2].wall_sec > 0 ? o.runs[0].wall_sec / o.runs[2].wall_sec
                               : 0.0);
    rep.info() << line;
  }
  rep.printf("\n");
  for (const TrialResult& res : results) {
    const auto& o = payload<ScaleOutcome>(res);
    const std::string tag = "nodes=" + std::to_string(o.nodes);
    bool identical = true;
    bool zero_grow = true;
    bool epochs_eq = true;
    for (const ScaleRun& r : o.runs) {
      identical = identical && r.checksum == o.runs[0].checksum &&
                  r.executed == o.runs[0].executed;
      epochs_eq = epochs_eq && r.epochs == o.runs[0].epochs;
      zero_grow = zero_grow && r.grows == 0;
    }
    rep.gate(tag + ": checksum+executed identical across shard counts",
             identical);
    rep.gate(tag + ": epoch count invariant across shard counts", epochs_eq);
    rep.gate(tag + ": zero pool/mailbox growth after reserve()", zero_grow);
    rep.gate(tag + ": repeated runs bit-identical", o.repeat_stable);
  }
}

[[maybe_unused]] const bool registered_scale = register_scenario(
    {.name = "engine_scale",
     .title = "Parallel scheduler node-scale: ring cluster across shard "
              "sweep {1,2,4,8}",
     .default_scale = 1.0,
     .order = 91,
     .trials = engine_scale_trials,
     .report = engine_scale_report});

}  // namespace
}  // namespace ktau::expt
