#include "analysis/netstat.hpp"

#include "kernel/cluster.hpp"
#include "knet/stack.hpp"
#include "sim/time.hpp"

namespace ktau::analysis {

std::vector<NetNodeCounters> net_node_counters(const knet::Fabric& fabric) {
  // Fabric only exposes non-const stack(); the harvest is read-only.
  auto& f = const_cast<knet::Fabric&>(fabric);
  const auto nodes = f.cluster().size();
  std::vector<NetNodeCounters> out;
  out.reserve(nodes);
  for (kernel::NodeId n = 0; n < nodes; ++n) {
    const knet::NodeStack& s = f.stack(n);
    NetNodeCounters row;
    row.node = n;
    row.tx_segments = s.tx_segments();
    row.rx_segments = s.rx_segments();
    row.rx_penalized = s.rx_penalized();
    row.retransmits = s.retransmits();
    row.spurious_retransmits = s.spurious_retransmits();
    row.acks_received = s.acks_received();
    for (std::size_t fd = 0; fd < s.socket_count(); ++fd) {
      row.read_errors += s.socket(static_cast<int>(fd)).read_errors;
    }
    row.nic_tx_sec = static_cast<double>(s.nic_tx_ns()) / sim::kSecond;
    row.rx_queued = s.rx_queued();
    out.push_back(row);
  }
  return out;
}

NetNodeCounters net_counter_totals(const std::vector<NetNodeCounters>& rows) {
  NetNodeCounters total;
  for (const auto& r : rows) {
    total.tx_segments += r.tx_segments;
    total.rx_segments += r.rx_segments;
    total.rx_penalized += r.rx_penalized;
    total.retransmits += r.retransmits;
    total.spurious_retransmits += r.spurious_retransmits;
    total.acks_received += r.acks_received;
    total.read_errors += r.read_errors;
    total.nic_tx_sec += r.nic_tx_sec;
    total.rx_queued += r.rx_queued;
  }
  return total;
}

}  // namespace ktau::analysis
