#include "src/cluster/cluster_router.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <tuple>

#include "src/fault/fault_injector.h"
#include "src/forwarders/native.h"
#include "src/sim/log.h"

namespace npr {

MacAddr ClusterNodeMac(int node, int plane) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, static_cast<uint8_t>(0x01 + plane),
                 static_cast<uint8_t>(node)};
}

MacAddr ClusterControlMac(int node, int plane) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, static_cast<uint8_t>(0x11 + plane),
                 static_cast<uint8_t>(node)};
}

void SwitchFabric::Attach(const MacAddr& mac, MacPort& port) {
  members_[mac].port = &port;
  member_stats_[mac];
}

void SwitchFabric::AttachControlSink(const MacAddr& mac, std::function<void(Packet&&)> sink) {
  control_sinks_[mac] = std::move(sink);
  member_stats_[mac];
}

SwitchFabric::MemberStats SwitchFabric::member_stats(const MacAddr& mac) const {
  auto it = member_stats_.find(mac);
  return it == member_stats_.end() ? MemberStats{} : it->second;
}

void SwitchFabric::Member::InjectNext() {
  Packet packet = std::move(inbox[head++]);
  if (head == inbox.size()) {
    inbox.clear();
    head = 0;
  }
  port->InjectFromWire(std::move(packet));
}

void SwitchFabric::SendFrom(const MacAddr& src_mac, Packet&& packet) {
  MemberStats& stats = member_stats_[src_mac];
  auto eth = EthernetHeader::Parse(packet.bytes());
  if (!eth) {
    ++unknown_;
    ++stats.unknown_dropped;
    return;
  }
  auto member = members_.find(eth->dst);
  auto control = control_sinks_.end();
  if (member == members_.end()) {
    control = control_sinks_.find(eth->dst);
    if (control == control_sinks_.end()) {
      ++unknown_;
      ++stats.unknown_dropped;
      return;
    }
  }
  if (gate_) {
    switch (gate_(src_mac, eth->dst)) {
      case FabricDrop::kNone:
        break;
      case FabricDrop::kLinkDown:
        ++gate_dropped_;
        ++stats.link_down_dropped;
        return;
      case FabricDrop::kNodeDown:
        ++gate_dropped_;
        ++stats.node_down_dropped;
        return;
      case FabricDrop::kInjected:
        ++gate_dropped_;
        ++stats.injected_dropped;
        return;
    }
  }
  ++forwarded_;
  ++stats.forwarded;
  if (member == members_.end()) {
    control->second(std::move(packet));
    return;
  }
  // The destination port lives on another engine, which sits at (or before)
  // the hub's clock: hand the frame to that engine instead of touching the
  // port from here.
  Member* m = &member->second;
  m->inbox.push_back(std::move(packet));
  m->port->engine().Schedule(hub_.now(), [m] { m->InjectNext(); });
}

ClusterRouter::ClusterRouter(ClusterConfig config) : config_(std::move(config)) {
  if (config_.fabric_latency_ps <= 0) {
    // The latency is the lookahead window: without it a frame could land in
    // the window that sent it, and no window width keeps the run exact.
    NPR_ERROR("ClusterConfig::fabric_latency_ps must be positive (got %lld ps)",
              static_cast<long long>(config_.fabric_latency_ps));
    std::abort();
  }

  assert(config_.nodes >= 2);
  assert(config_.internal_links >= 1);
  RouterConfig node_cfg = config_.node_config;
  assert(!node_cfg.port_rates_bps.empty());
  assert(node_cfg.num_ports() > config_.internal_links);
  first_internal_port_ = node_cfg.num_ports() - config_.internal_links;
  // The internal link is gigabit (§6); budgeting RI capacity for it is the
  // paper's stated consequence — visible here as the extra load the
  // internal port's traffic puts on the ingress/egress pipelines.
  for (int plane = 0; plane < config_.internal_links; ++plane) {
    node_cfg.port_rates_bps[static_cast<size_t>(first_internal_port_ + plane)] =
        config_.internal_link_bps;
  }

  planes_.reserve(static_cast<size_t>(config_.internal_links));
  for (int plane = 0; plane < config_.internal_links; ++plane) {
    planes_.push_back(std::make_unique<SwitchFabric>(engine_));
    planes_.back()->set_gate([this, plane](const MacAddr& src, const MacAddr& dst) {
      return GateFrame(plane, src, dst);
    });
  }

  node_up_.assign(static_cast<size_t>(config_.nodes), true);
  link_up_.assign(static_cast<size_t>(config_.nodes * config_.internal_links), true);

  // One engine per node; the cluster's own engine_ is the hub.
  node_engines_.reserve(static_cast<size_t>(config_.nodes));
  for (int k = 0; k < config_.nodes; ++k) {
    node_engines_.push_back(std::make_unique<EventQueue>());
  }
  mailboxes_.resize(static_cast<size_t>(config_.nodes));

  nodes_.reserve(static_cast<size_t>(config_.nodes));
  for (int k = 0; k < config_.nodes; ++k) {
    RouterConfig cfg_k = node_cfg;
    if (cfg_k.fault_plan.Any()) {
      // Node k's injector stream must be independent of node j's and a pure
      // function of (base seed, node); see FaultPlan::DeriveNodeSeed.
      cfg_k.fault_plan.seed = FaultPlan::DeriveNodeSeed(node_cfg.fault_plan.seed, k);
    }
    nodes_.push_back(std::make_unique<Router>(cfg_k, node_engine(k)));
    nodes_.back()->SetExceptionHandler(std::make_unique<FullIpForwarder>());
    for (int plane = 0; plane < config_.internal_links; ++plane) {
      MacPort& port = nodes_.back()->port(first_internal_port_ + plane);
      planes_[static_cast<size_t>(plane)]->Attach(ClusterNodeMac(k, plane), port);
      // The transmit side runs on node k's shard, so the sink only touches
      // k-local state: it timestamps the frame with the fabric latency and
      // parks it in k's mailbox. The barrier offers it to the fabric (on the
      // hub) in deterministic order.
      port.SetSink([this, k, plane](Packet&& packet) {
        FabricMailbox& mb = mailboxes_[static_cast<size_t>(k)];
        mb.entries.push_back(Crossing{node_engine(k).now() + config_.fabric_latency_ps, k, plane,
                                      mb.next_seq++, std::move(packet)});
      });
    }
  }

  std::vector<EventQueue*> shards;
  shards.reserve(node_engines_.size());
  for (auto& e : node_engines_) {
    shards.push_back(e.get());
  }
  const SimTime window = config_.window_ps > 0 ? config_.window_ps : config_.fabric_latency_ps;
  shard_group_ =
      std::make_unique<ShardGroup>(&engine_, std::move(shards), window, config_.threads);
  shard_group_->set_merge_hook([this](SimTime window_start) { MergeMailboxes(window_start); });
}

void ClusterRouter::MergeMailboxes(SimTime window_start) {
  // Crossings still pending (possible when a window was narrower than the
  // latency) move to the front. Every new one was transmitted after the
  // last barrier, so it is due no earlier than any of them.
  crossings_.erase(crossings_.begin(), crossings_.begin() + next_crossing_);
  next_crossing_ = 0;
  const size_t first_new = crossings_.size();
  for (FabricMailbox& mb : mailboxes_) {
    std::move(mb.entries.begin(), mb.entries.end(), std::back_inserter(crossings_));
    mb.entries.clear();
  }
  // Impose the deterministic total order (deliver_at, src_node, seq): the
  // hub's (time, insertion-seq) FIFO then replays them identically no
  // matter how many threads filled the boxes.
  std::sort(crossings_.begin() + first_new, crossings_.end(),
            [](const Crossing& a, const Crossing& b) {
              return std::tie(a.deliver_at, a.src_node, a.seq) <
                     std::tie(b.deliver_at, b.src_node, b.seq);
            });
  for (size_t i = first_new; i < crossings_.size(); ++i) {
    const Crossing& c = crossings_[i];
    if (c.deliver_at < window_start) {
      // A frame due before the window we are about to run: the window was
      // wider than the fabric latency, so shards already simulated past its
      // delivery time. Silently reordering it would be a nondeterminism
      // bug — fail loudly instead (and see ClusterConfig::window_ps).
      NPR_ERROR(
          "lookahead violation: frame from node %d due at %lld ps, window starts at %lld ps "
          "(window wider than fabric latency?)",
          c.src_node, static_cast<long long>(c.deliver_at),
          static_cast<long long>(window_start));
      std::abort();
    }
    // One hub event per crossing; they run in buffer order.
    engine_.Schedule(c.deliver_at, [this] { OfferNextCrossing(); });
  }
}

void ClusterRouter::OfferNextCrossing() {
  Crossing& c = crossings_[next_crossing_++];
  assert(c.deliver_at == engine_.now());
  planes_[static_cast<size_t>(c.plane)]->SendFrom(ClusterNodeMac(c.src_node, c.plane),
                                                  std::move(c.packet));
}

ClusterRouter::~ClusterRouter() {
  // Pending events (hub and shards) reference the member routers; drop them
  // before the nodes (declared after the engines) are destroyed.
  engine_.Clear();
  for (auto& e : node_engines_) {
    e->Clear();
  }
}

FabricDrop ClusterRouter::GateFrame(int plane, const MacAddr& src, const MacAddr& dst) const {
  // Attachment MACs carry the node index in their last byte (both the data
  // and the control convention), so the gate resolves membership directly.
  const int src_node = src[5];
  const int dst_node = dst[5];
  if (!node_up_[static_cast<size_t>(src_node)] || !node_up_[static_cast<size_t>(dst_node)]) {
    return FabricDrop::kNodeDown;
  }
  if (!link_up(src_node, plane) || !link_up(dst_node, plane)) {
    return FabricDrop::kLinkDown;
  }
  FaultInjector* fault = nodes_[static_cast<size_t>(src_node)]->fault_injector();
  if (fault != nullptr && fault->ShouldDropFabricFrame()) {
    return FabricDrop::kInjected;
  }
  return FabricDrop::kNone;
}

void ClusterRouter::SetLinkUp(int node, int plane, bool up) {
  link_up_[static_cast<size_t>(node * num_planes() + plane)] = up;
}

void ClusterRouter::SetNodeUp(int node, bool up) {
  if (node_up_[static_cast<size_t>(node)] == up) {
    return;
  }
  node_up_[static_cast<size_t>(node)] = up;
  for (const auto& hook : node_state_hooks_) {
    hook(node, up);
  }
}

std::pair<int, int> ClusterRouter::LocateExternal(int g) const {
  return {g / external_ports_per_node(), g % external_ports_per_node()};
}

std::string ClusterRouter::ExternalCidr(int g) const {
  return "10." + std::to_string(g) + ".0.0/16";
}

uint32_t ClusterRouter::ExternalDstIp(int g, uint16_t low) const {
  return 0x0a000000u | static_cast<uint32_t>(g) << 16 | low;
}

void ClusterRouter::InstallClusterRoutes() {
  for (int g = 0; g < num_external_ports(); ++g) {
    const auto [owner, port] = LocateExternal(g);
    const auto prefix = *Prefix::Parse(ExternalCidr(g));
    for (int k = 0; k < num_nodes(); ++k) {
      RouteEntry entry;
      if (k == owner) {
        entry.out_port = static_cast<uint8_t>(port);
        entry.next_hop_mac = PortMac(static_cast<uint8_t>(port));
      } else {
        // Remote prefix: egress on the internal link, addressed to the
        // owning node's fabric MAC.
        entry.out_port = static_cast<uint8_t>(internal_port());
        entry.next_hop_mac = ClusterNodeMac(owner);
      }
      node(k).route_table().AddRoute(prefix, entry);
    }
  }
  WarmRouteCaches();
}

void ClusterRouter::InstallLocalRoutes() {
  for (int g = 0; g < num_external_ports(); ++g) {
    const auto [owner, port] = LocateExternal(g);
    RouteEntry entry;
    entry.out_port = static_cast<uint8_t>(port);
    entry.next_hop_mac = PortMac(static_cast<uint8_t>(port));
    node(owner).route_table().AddRoute(*Prefix::Parse(ExternalCidr(g)), entry);
  }
}

void ClusterRouter::WarmRouteCaches() {
  for (int k = 0; k < num_nodes(); ++k) {
    for (int g = 0; g < num_external_ports(); ++g) {
      for (uint16_t low = 1; low <= 16; ++low) {
        const uint32_t dst = ExternalDstIp(g, low);
        auto hit = node(k).route_table().Lookup(dst);
        if (hit.entry) {
          node(k).route_cache().Insert(dst, *hit.entry, node(k).route_table().epoch());
        }
      }
    }
  }
}

void ClusterRouter::Start() {
  for (auto& n : nodes_) {
    n->Start();
  }
}

void ClusterRouter::StartMeasurement() {
  for (auto& n : nodes_) {
    n->StartMeasurement();
  }
}

uint64_t ClusterRouter::TotalDrops() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().dropped_queue_full + n->stats().lost_overwritten;
  }
  return total;
}

}  // namespace npr
