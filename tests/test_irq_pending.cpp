// The held-IRQ contract (DESIGN.md §3a, "Held interrupts"): a device IRQ
// line is pending at most once per CPU.  A raise whose line is already held
// behind a kernel path on the target CPU is absorbed; the one held delivery
// re-defers itself while the path runs on, and its handler drains
// everything that accumulated.  The pending bit clears when the held
// delivery starts, so a raise from then on is a new interrupt and nothing a
// handler drains can be stranded.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiments/chiba.hpp"
#include "kernel/cluster.hpp"

namespace ktau::kernel {
namespace {

using sim::kMicrosecond;
using sim::kMillisecond;

MachineConfig quiet(std::uint32_t cpus) {
  MachineConfig cfg;
  cfg.cpus = cpus;
  cfg.ktau.charge_overhead = false;
  return cfg;
}

/// One node with two test lines: `hold` runs a 1 ms handler, which keeps
/// its CPU inside a kernel path; `nic` drains a packet counter the way
/// NodeStack::nic_irq drains the rx ring.
struct Rig {
  Cluster cluster;
  Machine& m;
  Machine::IrqLine hold = 0;
  Machine::IrqLine nic = 0;
  std::uint64_t ring = 0;     // packets landed, not yet drained
  std::uint64_t drained = 0;  // packets pulled off by nic handlers
  std::vector<CpuId> nic_calls;  // CPU of each nic handler run
  /// Extra work for the nic handler's first run (after it drained).
  std::function<void(Cpu&)> on_first_nic;

  explicit Rig(std::uint32_t cpus = 1, IrqPolicy policy = IrqPolicy::AllToOne)
      : m(cluster.add_machine([&] {
          MachineConfig cfg = quiet(cpus);
          cfg.irq_policy = policy;
          return cfg;
        }())) {
    hold = m.register_irq(m.ktau().map_event("hold_irq", meas::Group::Irq),
                          [](Cpu& cpu) { cpu.clock.consume_cycles(450'000); });
    nic = m.register_irq(m.ktau().map_event("nic_irq", meas::Group::Irq),
                         [this](Cpu& cpu) {
                           nic_calls.push_back(cpu.id);
                           drained += ring;
                           ring = 0;
                           if (nic_calls.size() == 1 && on_first_nic) {
                             on_first_nic(cpu);
                           }
                         });
  }

  void at(sim::TimeNs when, std::function<void()> fn) {
    cluster.engine().schedule_at(when, std::move(fn));
  }
  /// A packet lands in the ring and the NIC raises its line.
  void packet_at(sim::TimeNs when) {
    at(when, [this] {
      ++ring;
      m.raise_device_irq(nic);
    });
  }
  std::uint64_t do_irqs(CpuId c) {
    return m.cpu(c).idle_prof.metrics(m.probes().do_irq).count;
  }
};

TEST(IrqPending, RaisesDuringAHeldPathMakeOneDeliveryThatDrainsThemAll) {
  Rig rig;
  constexpr int k = 5;
  rig.at(1 * kMillisecond, [&] { rig.m.raise_device_irq(rig.hold); });
  for (int i = 0; i < k; ++i) {
    rig.packet_at(1 * kMillisecond + (i + 1) * 100 * kMicrosecond);
  }
  rig.cluster.run();

  EXPECT_EQ(rig.nic_calls.size(), 1u);
  EXPECT_EQ(rig.drained, static_cast<std::uint64_t>(k));
  EXPECT_EQ(rig.ring, 0u);
  const Cpu& cpu = rig.m.cpu(0);
  EXPECT_EQ(cpu.irqs_coalesced, static_cast<std::uint64_t>(k - 1));
  EXPECT_EQ(cpu.hard_irqs, 2u);  // hold + one nic
  EXPECT_EQ(rig.do_irqs(0), 2u);
  // The hold raise, k packet raises, and exactly one deferred delivery
  // (it fires at the path's end, which does not move again).
  EXPECT_EQ(rig.cluster.executed_total(), static_cast<std::uint64_t>(k + 2));
}

TEST(IrqPending, RaiseAfterTheHeldDeliveryStartsIsPendingAgain) {
  // The nic handler drains, then a packet lands while it is still running
  // (the device raises its line from inside the handler's path).  The bit
  // was cleared when the delivery started, so this raise is a new pending
  // interrupt, delivered after the path; nothing stays in the ring.
  Rig rig;
  rig.on_first_nic = [&](Cpu& cpu) {
    ++rig.ring;
    rig.m.raise_device_irq(rig.nic);
    cpu.clock.consume_cycles(45'000);
  };
  rig.at(1 * kMillisecond, [&] { rig.m.raise_device_irq(rig.hold); });
  rig.packet_at(1500 * kMicrosecond);
  rig.cluster.run();

  EXPECT_EQ(rig.nic_calls.size(), 2u);
  EXPECT_EQ(rig.drained, 2u);
  EXPECT_EQ(rig.ring, 0u);
  EXPECT_EQ(rig.m.cpu(0).irqs_coalesced, 0u);
  EXPECT_EQ(rig.m.cpu(0).hard_irqs, 3u);
}

TEST(IrqPending, PacketLandingDuringTheDrainingPathIsDeliveredAfterIt) {
  // Same contract in engine time: the held nic delivery runs a 100 us path
  // at about 2 ms; a packet arriving at 2.05 ms finds the CPU busy and the
  // bit clear, so it is held as a fresh interrupt and drained after.
  Rig rig;
  rig.on_first_nic = [](Cpu& cpu) { cpu.clock.consume_cycles(45'000); };
  rig.at(1 * kMillisecond, [&] { rig.m.raise_device_irq(rig.hold); });
  rig.packet_at(1500 * kMicrosecond);
  rig.packet_at(2050 * kMicrosecond);
  rig.cluster.run();

  EXPECT_EQ(rig.nic_calls.size(), 2u);
  EXPECT_EQ(rig.drained, 2u);
  EXPECT_EQ(rig.ring, 0u);
  EXPECT_EQ(rig.m.cpu(0).irqs_coalesced, 0u);
}

TEST(IrqPending, DifferentLinesOnOneCpuAreNotMerged) {
  Rig rig;
  std::uint64_t other_calls = 0;
  const Machine::IrqLine other = rig.m.register_irq(
      rig.m.ktau().map_event("other_irq", meas::Group::Irq),
      [&](Cpu&) { ++other_calls; });
  rig.at(1 * kMillisecond, [&] { rig.m.raise_device_irq(rig.hold); });
  rig.packet_at(1200 * kMicrosecond);
  rig.at(1300 * kMicrosecond, [&] { rig.m.raise_device_irq(other); });
  rig.packet_at(1400 * kMicrosecond);  // same line as 1.2 ms: absorbed
  rig.cluster.run();

  EXPECT_EQ(rig.nic_calls.size(), 1u);
  EXPECT_EQ(rig.drained, 2u);
  EXPECT_EQ(other_calls, 1u);
  EXPECT_EQ(rig.m.cpu(0).irqs_coalesced, 1u);
  EXPECT_EQ(rig.m.cpu(0).hard_irqs, 3u);
}

TEST(IrqPending, RoundRobinKeepsOnePendingBitPerCpu) {
  Rig rig(2, IrqPolicy::RoundRobin);
  // Both CPUs enter a 1 ms handler path (round robin: CPU0, then CPU1).
  rig.at(1 * kMillisecond, [&] {
    rig.m.raise_device_irq(rig.hold);
    rig.m.raise_device_irq(rig.hold);
  });
  // Four packets route CPU0, CPU1, CPU0, CPU1: one held delivery per CPU,
  // one raise absorbed on each.
  for (int i = 0; i < 4; ++i) {
    rig.packet_at(1 * kMillisecond + (i + 1) * 100 * kMicrosecond);
  }
  rig.cluster.run();

  ASSERT_EQ(rig.nic_calls.size(), 2u);
  EXPECT_NE(rig.nic_calls[0], rig.nic_calls[1]);
  EXPECT_EQ(rig.drained, 4u);
  EXPECT_EQ(rig.ring, 0u);
  for (CpuId c = 0; c < 2; ++c) {
    EXPECT_EQ(rig.m.cpu(c).irqs_coalesced, 1u) << "cpu " << c;
    EXPECT_EQ(rig.m.cpu(c).hard_irqs, 2u) << "cpu " << c;
  }
}

TEST(IrqPending, RaiseOfAnUnregisteredLineThrows) {
  Rig rig;
  EXPECT_THROW(rig.m.raise_device_irq(rig.nic + 1), std::out_of_range);
}

// A full LU run at the minimum scale leaves no segment behind: every rx
// ring and softirq backlog is empty, and every segment sent was received.
// The anomaly configuration holds the most NIC IRQs (one CPU serves the
// node); Pin,I-Bal round-robins them, so both per-CPU bit paths run.
class IrqPendingLu : public ::testing::TestWithParam<expt::ChibaConfig> {};

TEST_P(IrqPendingLu, NoSegmentIsStranded) {
  expt::ChibaRunConfig cfg;
  cfg.config = GetParam();
  cfg.workload = expt::Workload::LU;
  cfg.scale = 0.001;
  const auto run = expt::run_chiba(cfg);

  std::uint64_t tx = 0, rx = 0, queued = 0;
  for (const auto& node : run.net_nodes) {
    tx += node.tx_segments;
    rx += node.rx_segments;
    queued += node.rx_queued;
    EXPECT_EQ(node.rx_queued, 0u) << "node " << node.node;
  }
  EXPECT_GT(tx, 0u);
  EXPECT_EQ(rx, tx);
  EXPECT_EQ(queued, 0u);
  EXPECT_GT(run.hard_irqs, 0u);
  EXPECT_GT(run.irqs_coalesced, 0u);
  std::printf("[%s] tx %llu rx %llu hard_irqs %llu irqs_coalesced %llu\n",
              expt::config_name(cfg.config).c_str(),
              static_cast<unsigned long long>(tx),
              static_cast<unsigned long long>(rx),
              static_cast<unsigned long long>(run.hard_irqs),
              static_cast<unsigned long long>(run.irqs_coalesced));
}

INSTANTIATE_TEST_SUITE_P(Configs, IrqPendingLu,
                         ::testing::Values(expt::ChibaConfig::C64x2Anomaly,
                                           expt::ChibaConfig::C64x2PinIbal));

}  // namespace
}  // namespace ktau::kernel
