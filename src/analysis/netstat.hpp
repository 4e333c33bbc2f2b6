// Per-node network-stack pathology counters, harvested from a knet fabric.
//
// The NodeStack counters (retransmits, cache-penalized receives, EBUSY read
// errors, NIC wire occupancy) used to be trapped in per-stack accessors;
// this view lifts them into a machine-readable per-node table so fault and
// congestion scenarios can put them in their JSON documents next to the
// KTAU-derived attribution.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/types.hpp"

namespace ktau::knet {
class Fabric;
}

namespace ktau::analysis {

struct NetNodeCounters {
  kernel::NodeId node = 0;
  /// Data segments sent (first transmissions; loopback included).
  std::uint64_t tx_segments = 0;
  /// Segments processed by tcp_v4_rcv (includes discarded duplicates).
  std::uint64_t rx_segments = 0;
  /// Of those, receives that paid the cross-CPU cache penalty.
  std::uint64_t rx_penalized = 0;
  /// Segments this node retransmitted after simulated wire loss.
  std::uint64_t retransmits = 0;
  /// Retransmissions of segments that were never lost (also counted in
  /// `retransmits`) — Reno mistaking reordering for loss.
  std::uint64_t spurious_retransmits = 0;
  /// Pure ACKs processed (windowed stack models only).
  std::uint64_t acks_received = 0;
  /// EBUSY socket reads, summed over this node's sockets.
  std::uint64_t read_errors = 0;
  /// Cumulative NIC egress serialization (wire occupancy), seconds.
  double nic_tx_sec = 0;
  /// Segments left in the rx ring or a softirq backlog at harvest time
  /// (0 once a run has drained).
  std::uint64_t rx_queued = 0;
};

/// One row per node, in node-id order.
std::vector<NetNodeCounters> net_node_counters(const knet::Fabric& fabric);

/// Column-wise sum over `rows` (the `node` field is left 0).
NetNodeCounters net_counter_totals(const std::vector<NetNodeCounters>& rows);

}  // namespace ktau::analysis
