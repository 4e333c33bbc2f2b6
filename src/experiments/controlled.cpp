#include "experiments/controlled.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/traceexport.hpp"
#include "apps/daemons.hpp"
#include "apps/lu.hpp"
#include "clients/ktaud.hpp"
#include "libktau/libktau.hpp"

namespace ktau::expt {

namespace {

apps::LuParams demo_lu_params(int ranks, double scale, std::uint64_t seed) {
  apps::LuParams p;
  p.py = ranks >= 16 ? 4 : 2;
  while (p.py > 1 && ranks % p.py != 0) --p.py;
  p.px = ranks / p.py;
  p.iterations = std::max(3, static_cast<int>(60 * scale));
  p.rhs_time = 400 * sim::kMillisecond;
  p.stage_time = 8 * sim::kMillisecond;
  p.k_blocks = 8;
  p.halo_bytes = 16 * 1024;
  p.pipe_bytes = 4 * 1024;
  p.norm_every = 10;
  p.seed = seed * 53 + 1;
  return p;
}

void run_until_done(kernel::Cluster& cluster, mpi::World& world) {
  const sim::TimeNs chunk = 2 * sim::kSecond;
  const sim::TimeNs limit = 20'000 * sim::kSecond;
  for (;;) {
    bool all_done = true;
    for (int r = 0; r < world.size(); ++r) {
      if (!world.task(r).exited) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    if (cluster.now() > limit) {
      throw std::runtime_error("controlled experiment did not complete");
    }
    cluster.run_until(cluster.now() + chunk);
  }
}

}  // namespace

ControlledClusterResult run_controlled_cluster(std::uint64_t seed,
                                               double scale) {
  constexpr int kRanks = 16;
  constexpr int kNodes = 8;
  const kernel::NodeId hog_node = kNodes - 1;  // "Host 8"

  kernel::Cluster cluster;
  for (int n = 0; n < kNodes; ++n) {
    kernel::MachineConfig mc;
    mc.name = "host" + std::to_string(n + 1);
    mc.cpus = 2;
    mc.seed = seed * 7919 + n;
    cluster.add_machine(mc);
  }
  knet::NetConfig net;
  net.seed = seed * 104729 + 3;
  knet::Fabric fabric(cluster, net);

  std::vector<mpi::RankPlacement> placement;
  for (int r = 0; r < kRanks; ++r) {
    placement.push_back({static_cast<kernel::NodeId>(r % kNodes),
                         kernel::cpu_bit(static_cast<kernel::CpuId>(
                             r / kNodes))});
  }
  mpi::World world(cluster, fabric, std::move(placement), "lu");
  apps::LuApp app(world, demo_lu_params(kRanks, scale, seed));

  for (int n = 0; n < kNodes; ++n) {
    apps::spawn_daemon_mix(cluster.machine(n), 100'000 * sim::kSecond);
  }
  // The artificial performance anomaly: the "overhead" process on one node
  // (the paper's 10 s sleep / 3 s busy loop, scaled to the demo length so
  // several interference cycles land inside the run).
  apps::HogParams hog;
  hog.sleep = 2 * sim::kSecond;
  hog.busy = 1500 * sim::kMillisecond;
  hog.until = 100'000 * sim::kSecond;
  kernel::Task& hog_task =
      apps::spawn_hog(cluster.machine(hog_node), hog);

  app.install_and_launch();
  run_until_done(cluster, world);

  ControlledClusterResult result;
  result.job_sec = static_cast<double>(world.job_completion()) / sim::kSecond;
  result.hog_node_id = hog_node;
  result.hog_name = hog_task.name;

  for (int n = 0; n < kNodes; ++n) {
    user::KtauHandle handle(cluster.machine(n).proc());
    const auto snap = handle.get_profile(meas::Scope::All);
    double sched = 0;
    double invol = 0;
    for (const auto& task : snap.tasks) {
      const auto groups = analysis::group_breakdown(snap, task);
      const auto it = groups.find(meas::Group::Sched);
      if (it != groups.end()) sched += it->second;
      invol += analysis::named_metrics(snap, task, "schedule").incl_sec;
    }
    result.node_sched_sec.emplace_back("host" + std::to_string(n + 1), sched);
    result.node_invol_sec.emplace_back("host" + std::to_string(n + 1), invol);
    if (n == static_cast<int>(hog_node)) result.hog_node = snap;
  }

  // Figure 2-D: merged view of rank 0 (clean node 0).
  user::KtauHandle handle(cluster.machine(0).proc());
  const auto snap0 = handle.get_profile(meas::Scope::All);
  result.merged_rank_id = 0;
  result.merged_rank = analysis::merged_profile(
      snap0, analysis::task_of(snap0, world.task(0).pid), app.profiler(0));
  return result;
}

VolInvolResult run_smp_volinvol(std::uint64_t seed, double scale) {
  constexpr int kRanks = 4;
  kernel::Cluster cluster;
  kernel::MachineConfig mc;
  mc.name = "neutron";
  mc.cpus = 4;  // the paper's 4-CPU P3 Xeon SMP host
  mc.seed = seed;
  // Weak affinity (DESIGN.md §3a): the ranks are unpinned, yet each stays on
  // the CPU it was first placed on, as the figure's reading "LU-0 shares
  // CPU0 with the daemon" requires.  Wake misplacement and push balancing
  // are the Chiba calibration of rank migration; on this host they swap
  // ranks through CPU0 and make the preempted rank a seed lottery.
  mc.wake_misplace_prob = 0;
  mc.push_balance = false;
  kernel::Machine& m = cluster.add_machine(mc);
  knet::NetConfig net;
  net.seed = seed + 2;
  knet::Fabric fabric(cluster, net);

  // The job starts once the daemon is resident and asleep, so rank r is
  // first placed on CPU r.  Launched at the same instant, the daemon's
  // start-up would hold CPU0 and shift every rank one CPU up.
  std::vector<mpi::RankPlacement> placement(
      kRanks, mpi::RankPlacement{0, kernel::kAllCpus, sim::kMillisecond});
  mpi::World world(cluster, fabric, std::move(placement), "lu");
  apps::LuParams p = demo_lu_params(kRanks, scale, seed);
  p.px = 2;
  p.py = 2;
  apps::LuApp app(world, p);

  // The cycle-stealing daemon pinned to CPU-0.
  apps::HogParams hog;
  hog.sleep = 800 * sim::kMillisecond;
  hog.busy = 400 * sim::kMillisecond;
  hog.until = 100'000 * sim::kSecond;
  apps::spawn_hog(m, hog, kernel::cpu_bit(0), "cpu0-daemon");

  app.install_and_launch();
  run_until_done(cluster, world);

  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  VolInvolResult result;
  for (int r = 0; r < kRanks; ++r) {
    const auto& task = analysis::task_of(snap, world.task(r).pid);
    result.vol_sec.push_back(
        analysis::named_metrics(snap, task, "schedule_vol").incl_sec);
    result.invol_sec.push_back(
        analysis::named_metrics(snap, task, "schedule").incl_sec);
  }
  return result;
}

TraceDemoResult run_trace_demo(std::uint64_t seed) {
  kernel::Cluster cluster;
  kernel::MachineConfig mc;
  mc.name = "tracer";
  mc.cpus = 2;
  mc.seed = seed;
  mc.ktau.tracing = true;
  mc.ktau.trace_capacity = 1 << 14;
  kernel::Machine& m = cluster.add_machine(mc);
  knet::NetConfig net;
  net.seed = seed + 4;
  knet::Fabric fabric(cluster, net);

  // Two ranks on one node: loopback TCP, so receive bottom halves run at
  // the end of the send syscall's kernel path (the Figure 2-E effect).
  std::vector<mpi::RankPlacement> placement = {
      {0, kernel::cpu_bit(0)}, {0, kernel::cpu_bit(1)}};
  mpi::World world(cluster, fabric, std::move(placement), "lu");

  tau::TauConfig tc;
  tc.tracing = true;
  tau::Profiler tau0(m, world.task(0), tc);
  tau::Profiler tau1(m, world.task(1), tc);
  const auto f_send0 = tau0.reg("MPI_Send");
  const auto f_recv0 = tau0.reg("MPI_Recv");
  const auto f_comp0 = tau0.reg("compute");
  tau1.reg("MPI_Send");
  tau1.reg("MPI_Recv");

  world.task(0).program = [](mpi::World& w, tau::Profiler& tau,
                             tau::FuncId fs, tau::FuncId fr,
                             tau::FuncId fc) -> kernel::Program {
    for (int i = 0; i < 50; ++i) {
      tau.enter(fc);
      co_await kernel::Compute{10 * sim::kMillisecond};
      tau.exit(fc);
      tau.enter(fs);
      co_await w.send(0, 1, 64 * 1024);
      tau.exit(fs);
      tau.enter(fr);
      co_await w.recv(0, 1, 64 * 1024);
      tau.exit(fr);
    }
  }(world, tau0, f_send0, f_recv0, f_comp0);

  world.task(1).program = [](mpi::World& w, tau::Profiler& tau) ->
      kernel::Program {
    const auto fs = tau.find("MPI_Send");
    const auto fr = tau.find("MPI_Recv");
    for (int i = 0; i < 50; ++i) {
      tau.enter(fr);
      co_await w.recv(1, 0, 64 * 1024);
      tau.exit(fr);
      tau.enter(fs);
      co_await w.send(1, 0, 64 * 1024);
      tau.exit(fs);
    }
  }(world, tau1);

  // ktaud drains the kernel trace buffers while the ranks run.
  clients::KtaudConfig kcfg;
  kcfg.period = 100 * sim::kMillisecond;
  kcfg.until = 10'000 * sim::kSecond;
  kcfg.collect_profiles = false;
  clients::Ktaud ktaud(m, kcfg);

  world.launch_all();
  run_until_done(cluster, world);

  // Stitch ktaud's periodic extractions into one trace for rank 0.
  const meas::Pid pid = world.task(0).pid;
  const meas::TraceSnapshot combined =
      analysis::merge_trace_frames(ktaud.traces());

  TraceDemoResult result;
  result.ktaud_extractions = ktaud.extractions();
  result.full = analysis::merge_timeline(combined, pid, tau0);

  // Window: a complete MPI_Send activation (skip the first few sends so
  // the pipeline is warm and peer traffic is in flight).
  int sends_seen = 0;
  std::size_t begin = result.full.size(), end = result.full.size();
  for (std::size_t i = 0; i < result.full.size(); ++i) {
    const auto& e = result.full[i];
    if (!e.is_kernel && e.name == "MPI_Send" && e.is_enter) {
      ++sends_seen;
      if (sends_seen >= 5) {
        begin = i;
        for (std::size_t j = i + 1; j < result.full.size(); ++j) {
          const auto& x = result.full[j];
          if (!x.is_kernel && x.name == "MPI_Send" && !x.is_enter) {
            end = j + 1;
            break;
          }
        }
        break;
      }
    }
  }
  if (begin < end) {
    result.send_window.assign(result.full.begin() + begin,
                              result.full.begin() + end);
  }
  return result;
}

}  // namespace ktau::expt
