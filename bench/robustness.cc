// §4.7 robustness experiments.
//
// Experiment 1: with a forwarder suite using the full VRP budget, an
// increasing share of the 1.128 Mpps line-rate load is routed through the
// Pentium. The paper found up to 310 Kpps flows through the Pentium with no
// drops anywhere, each packet receiving 1510 cycles of service.
//
// Experiment 2: an increasing percentage of packets is treated as
// exceptional (a simulated control-packet flood). Regular forwarding is
// unaffected until the StrongARM itself saturates.

// Experiment 3 (self-healing extension): the Pentium hangs while carrying a
// share of the load. With the health monitor attached the bridge sheds
// Pentium-bound packets while the host is degraded, so path A holds its
// rate during the hang and returns to baseline after recovery.

// Experiment 4 (overload-governor extension): gigabit ports under each
// adversarial workload, with a conforming source on an uncontended port and
// control frames arriving through a flooded port. Holds the graceful-
// degradation contract as paper-vs-measured rows: conforming goodput within
// 10% of fault-free, control-plane delivery at 100%, every governor drop
// attributed, and an 8-node flooded cluster with zero spurious
// reconvergences. ci/chaos_smoke.sh enforces the budgets on these rows.

#include <atomic>

#include "bench/bench_util.h"
#include "src/cluster/cluster_control.h"
#include "src/core/overload.h"
#include "src/core/upgrade.h"
#include "src/fault/fault_injector.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/health/cluster_health.h"
#include "src/health/health_monitor.h"

namespace npr {
namespace {

struct PentiumPoint {
  double offered_frac;
  double pentium_kpps;
  double fast_path_mpps;
  uint64_t regular_drops;
  uint64_t pentium_path_drops;
};

PentiumPoint RunPentiumShare(double fraction) {
  RouterConfig cfg;  // real ports at line rate
  cfg.synthetic_pentium_fraction = fraction;
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(64);

  // The VRP suite (§4.7: "a synthetic suite of forwarders based on the
  // examples given in Section 4.4" using the full budget).
  for (auto builder : {BuildSynMonitor, BuildAckMonitor}) {
    VrpProgram program = builder();
    InstallRequest req;
    req.key = FlowKey::All();
    req.where = Where::kMicroEngine;
    req.program = &program;
    (void)router.Install(req);
  }
  // The Pentium service: 1510 cycles per packet.
  const int idx = router.pe_forwarders().Register(
      std::make_unique<FixedCostForwarder>("service-1510", 1510));
  InstallRequest pe;
  pe.key = FlowKey::All();
  pe.where = Where::kPentium;
  pe.native_index = idx;
  // Reserve a rate admission accepts; the experiment then offers more than
  // the reservation (the paper had no admission control and simply pushed
  // load until packets dropped).
  pe.expected_pps = std::min(fraction * 1.128e6, 250e3);
  pe.expected_cpp = 1510;
  auto pe_outcome = router.Install(pe);
  if (!pe_outcome.ok) {
    std::fprintf(stderr, "pentium service install failed: %s\n", pe_outcome.error.c_str());
  }
  router.Start();

  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(p + 31)));
    gens.back()->Start(40 * kPsPerMs);
  }
  router.RunForMs(5.0);
  router.StartMeasurement();
  const uint64_t pe_before = router.stats().pentium_processed;
  const SimTime t0 = router.engine().now();
  router.RunForMs(30.0);
  const double seconds =
      static_cast<double>(router.engine().now() - t0) / static_cast<double>(kPsPerSec);

  PentiumPoint point;
  point.offered_frac = fraction;
  point.pentium_kpps =
      static_cast<double>(router.stats().pentium_processed - pe_before) / seconds / 1e3;
  point.fast_path_mpps = router.ForwardingRateMpps();
  point.regular_drops = router.queues().TotalDrops();
  point.pentium_path_drops = router.stats().dropped_queue_full - point.regular_drops;
  bench::RecordEvents(router.engine().events_run());
  return point;
}

struct FloodPoint {
  double exceptional_frac;
  double regular_mpps;
  double sa_kpps;
  uint64_t regular_drops;
};

FloodPoint RunExceptionalFlood(double fraction) {
  // Base infrastructure at maximum rate, no VRP (§4.7 experiment 2),
  // with `fraction` of packets treated as exceptional.
  RouterConfig cfg = bench::InfiniteFifoConfig();
  cfg.enable_strongarm = true;
  cfg.synthetic_exceptional_fraction = fraction;
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.Start();
  router.RunForMs(2.0);
  router.StartMeasurement();
  const uint64_t sa_before = router.stats().sa_local_processed;
  const SimTime t0 = router.engine().now();
  router.RunForMs(10.0);
  const double seconds =
      static_cast<double>(router.engine().now() - t0) / static_cast<double>(kPsPerSec);

  FloodPoint point;
  point.exceptional_frac = fraction;
  point.regular_mpps = router.ForwardingRateMpps();
  point.sa_kpps =
      static_cast<double>(router.stats().sa_local_processed - sa_before) / seconds / 1e3;
  point.regular_drops = router.queues().TotalDrops();
  bench::RecordEvents(router.engine().events_run());
  return point;
}

struct HealPoint {
  double during_mpps = 0;  // path A while the Pentium is hanging (shedding)
  double after_mpps = 0;   // path A after faults stop and recovery completes
  uint64_t shed = 0;
  uint64_t watchdog = 0;
};

HealPoint RunSelfHealing(bool faulty) {
  RouterConfig cfg;  // real ports at line rate, a Pentium share of the load
  cfg.synthetic_pentium_fraction = 0.2;
  if (faulty) {
    FaultPlan plan;
    plan.pentium_hang_mean_ps = 4 * kPsPerMs;
    plan.pentium_hang_ps = 1500 * kPsPerUs;
    cfg.fault_plan = plan;
  }
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(64);
  const int idx = router.pe_forwarders().Register(
      std::make_unique<FixedCostForwarder>("service-1510", 1510));
  InstallRequest pe;
  pe.key = FlowKey::All();
  pe.where = Where::kPentium;
  pe.native_index = idx;
  pe.expected_pps = 200e3;
  pe.expected_cpp = 1510;
  (void)router.Install(pe);
  router.Start();
  HealthMonitor health(router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(p + 31)));
    gens.back()->Start(35 * kPsPerMs);
  }
  HealPoint point;
  router.RunForMs(5.0);
  router.StartMeasurement();
  router.RunForMs(12.0);  // hangs arrive here; the bridge sheds
  point.during_mpps = router.ForwardingRateMpps();
  if (router.fault_injector() != nullptr) {
    router.fault_injector()->set_armed(false);
  }
  router.RunForMs(3.0);  // recovery grace
  router.StartMeasurement();
  router.RunForMs(10.0);
  point.after_mpps = router.ForwardingRateMpps();
  point.shed = router.stats().pkts_shed_degraded;
  point.watchdog = router.stats().watchdog_fired;
  bench::RecordEvents(router.engine().events_run());
  return point;
}

const char* AdversarialName(TrafficSpec::Adversarial mode) {
  switch (mode) {
    case TrafficSpec::Adversarial::kMinSizeFlood:
      return "min-size flood";
    case TrafficSpec::Adversarial::kElephantFlows:
      return "elephant flows";
    case TrafficSpec::Adversarial::kOnOffBurst:
      return "on/off burst";
    case TrafficSpec::Adversarial::kFlowChurn:
      return "flow churn";
    default:
      return "none";
  }
}

Packet ControlFrame(uint8_t arrival_port, uint32_t id) {
  PacketSpec spec;
  spec.protocol = kIpProtoOspfLite;
  spec.eth_src = PortMac(arrival_port);
  spec.eth_dst = PortMac(0xfe);
  spec.dst_ip = 0x0aff0001;
  spec.src_ip = SrcIpForPort(arrival_port, 99);
  Packet p = BuildPacket(spec);
  p.set_id(id);
  p.set_arrival_port(arrival_port);
  return p;
}

struct OverloadPoint {
  uint64_t conforming_delivered = 0;
  uint64_t escalations = 0;
  uint64_t red = 0;
  uint64_t policed = 0;
  uint64_t quenched = 0;
  uint64_t shed_host = 0;
  uint64_t control_sent = 0;
  uint64_t control_admitted = 0;
  uint64_t control_bridged = 0;
  bool attribution_ok = false;
};

// One adversarial-load run: conforming 100 Kpps on port 0 -> port 5, the
// attack (when on) floods ports 1-3 at dst port 4 under `mode`. Control
// frames arrive through flooded port 1 on a cadence spanning every ladder
// stage. The extra 2.5 ms past the generators drains the wire backlog and
// the victim's output queue so the conservation check runs at quiescence.
OverloadPoint RunAdversarialLoad(TrafficSpec::Adversarial mode, bool attack,
                                 bool with_control) {
  RouterConfig cfg;
  cfg.port_rates_bps = std::vector<double>(8, 1e9);  // gig ports: path A can overload
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(32);
  OverloadPoint point;
  // Count only the conforming generator's frames (id prefix = source port 0):
  // the elephant/churn modes spray destinations, and their strays landing on
  // port 5 must not inflate the goodput ratio.
  router.port(5).SetSink([&point](Packet&& p) {
    point.conforming_delivered += (p.id() >> 24) == 0 ? 1 : 0;
  });
  router.Start();
  OverloadGovernor gov(router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  TrafficSpec conforming;
  conforming.rate_pps = 100'000;
  conforming.pattern = TrafficSpec::DstPattern::kSinglePort;
  conforming.single_dst_port = 5;
  gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(0), conforming, 99));
  gens.back()->Start(5 * kPsPerMs);
  if (attack) {
    for (int p : {1, 2, 3}) {
      TrafficSpec spec;
      spec.rate_pps = 1.6e6;  // above gigabit line rate; the wire paces it down
      spec.adversarial = mode;
      spec.flood_factor = 1.0;
      spec.single_dst_port = 4;
      // Rotating sources defeat the stage-2 policer so the ladder can walk
      // deeper than policing under the flood modes.
      spec.flood_sources = 64;
      gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                  42 + static_cast<uint64_t>(p)));
      gens.back()->Start(5 * kPsPerMs);
    }
  }
  if (with_control) {
    const int kControl = 40;
    point.control_sent = kControl;
    for (int i = 0; i < kControl; ++i) {
      router.engine().Schedule(static_cast<SimTime>(i) * 100 * kPsPerUs, [&router, i] {
        router.port(1).InjectFromWire(ControlFrame(1, 0x00c00001u + static_cast<uint32_t>(i)));
      });
    }
  }
  router.RunForMs(7.5);

  point.escalations = gov.escalations();
  point.red = router.stats().gov_red_dropped;
  point.policed = router.stats().gov_policed;
  point.quenched = router.stats().gov_quenched;
  point.shed_host = router.stats().gov_shed_pe + router.stats().gov_shed_sa;
  point.control_admitted = gov.control_admitted();
  // The UDP workload rides path A, so the Pentium-bound stream is exactly
  // the injected control traffic.
  point.control_bridged = router.bridge().bridged_to_pentium();
  point.attribution_ok = RouterInvariants::CheckAll(router).ok();
  bench::RecordEvents(router.engine().events_run());
  return point;
}

struct ClusterFloodPoint {
  uint64_t escalations = 0;
  uint64_t reconvergences = 0;
  uint64_t suspects = 0;
  uint64_t delivered = 0;
  int nodes_up = 0;
};

// The 8-node sharded cluster with both external ports of every node flooded
// at line rate (one stream crosses the fabric, one hairpins), so each node
// sees ~3 line-rate ingress streams against ~2.3 streams of path-A
// capacity. Overload must never masquerade as node death.
ClusterFloodPoint RunClusterFlood() {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.internal_links = 2;
  cfg.threads = 2;
  cfg.node_config.port_rates_bps = std::vector<double>(4, 1e9);
  ClusterRouter cluster(std::move(cfg));

  ClusterControlPlane control(cluster);
  control.Start();
  ClusterHealthMonitor cluster_health(cluster, control);

  ClusterFloodPoint point;
  // Sinks fire on their node's shard thread; the cross-node tally must be
  // atomic under the sharded engine.
  std::atomic<uint64_t> delivered{0};
  std::vector<std::unique_ptr<OverloadGovernor>> governors;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    governors.push_back(std::make_unique<OverloadGovernor>(cluster.node(k)));
    for (int p = 0; p < cluster.external_ports_per_node(); ++p) {
      cluster.node(k).port(p).SetSink([&delivered](Packet&&) { ++delivered; });
    }
  }
  cluster.Start();

  const int ext = cluster.external_ports_per_node();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    const int next = (k + 1) % cluster.num_nodes();
    const uint8_t targets[] = {static_cast<uint8_t>(next * ext),
                               static_cast<uint8_t>(k * ext + 1)};
    for (int p = 0; p < 2; ++p) {
      TrafficSpec spec;
      spec.rate_pps = 1.6e6;
      spec.adversarial = TrafficSpec::Adversarial::kMinSizeFlood;
      spec.flood_factor = 1.0;
      spec.single_dst_port = targets[p];
      gens.push_back(std::make_unique<TrafficGen>(
          cluster.node_engine(k), cluster.node(k).port(p), spec,
          FaultPlan::DeriveNodeSeed(0x10ad5ULL, k * 2 + p)));
      gens.back()->Start(4 * kPsPerMs);
    }
  }
  cluster.RunForMs(8.0);

  point.delivered = delivered.load();
  for (const auto& gov : governors) {
    point.escalations += gov->escalations();
  }
  point.reconvergences = control.records().size();
  point.suspects = cluster_health.suspects_raised();
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    point.nodes_up += cluster.node_up(k) ? 1 : 0;
  }
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    bench::RecordEvents(cluster.node_engine(k).events_run());
  }
  return point;
}

// --- experiment 5: hitless in-service upgrade ---

// A stateful MicroEngine forwarder whose queue choice depends on a counter
// in flow state; two copies stay in lockstep iff their state agrees, which
// is what the shadow/soak comparisons and the bit-identity rows exercise.
// (bench/upgrade is the full acceptance bench; these rows are the
// robustness-suite summary ci/upgrade_smoke.sh cross-checks.)
VrpProgram UpgradeParityQueue(int32_t counter_offset, uint32_t state_bytes,
                              const char* name) {
  VrpProgram p;
  p.name = name;
  p.flow_state_bytes = state_bytes;
  p.code = {
      {VrpOp::kLdSram, 0, 0, counter_offset}, {VrpOp::kAddI, 0, 0, 1},
      {VrpOp::kStSram, 0, 0, counter_offset}, {VrpOp::kMovI, 1, 0, 0},
      {VrpOp::kAndI, 0, 0, 1},                {VrpOp::kBeq, 0, 1, 2},
      {VrpOp::kSetQueue, 0, 0, 1},            {VrpOp::kSend, 0, 0, 0},
  };
  return p;
}

struct UpgradePoint {
  uint64_t forwarded = 0;
  std::vector<uint64_t> decisions;
  UpgradePhase phase = UpgradePhase::kIdle;
  size_t rollbacks = 0;
  bool invariants_ok = false;
};

// kind: 0 = control (no upgrade), 1 = hitless layout migration,
// 2 = byzantine image that goes bad in soak.
UpgradePoint RunUpgrade(int kind) {
  Router router{RouterConfig{}};
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(32);
  VrpProgram v1 = UpgradeParityQueue(0, 4, "v1");
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &v1;
  const uint32_t fid = router.Install(req).fid;
  const uint32_t handle = router.flow_table().Get(fid)->me_program_id;
  router.Start();
  UpgradeOrchestrator upgrade(router);
  upgrade.RecordDecisions(handle);

  TrafficSpec spec;
  spec.rate_pps = 200'000;
  spec.dst_spread = 16;
  TrafficGen gen(router.engine(), router.port(0), spec, 0x46a11ULL);
  gen.Start(static_cast<SimTime>(6.0 * kPsPerMs));
  router.RunForMs(0.5);

  if (kind == 1) {
    // v2 keeps the counter in a wider record at a new offset; the layout
    // migrator carries the live value across, so parity never skips.
    VrpProgram v2 = UpgradeParityQueue(4, 8, "v2");
    upgrade.Begin(fid, v2, VrpImageChecksum(v2),
                  [](std::span<const uint8_t> old_state, std::span<uint8_t> new_state) {
                    if (old_state.size() < 4 || new_state.size() < 8) {
                      return false;
                    }
                    std::copy_n(old_state.begin(), 4, new_state.begin() + 4);
                    return true;
                  });
  } else if (kind == 2) {
    // Conforms until the counter passes the live value + 60 — past shadow
    // validation, inside the soak window — then silently drops.
    const int32_t k = static_cast<int32_t>(router.chip().memory().sram_store().ReadU32(
                          router.flow_table().Get(fid)->state_addr)) +
                      60;
    VrpProgram bad;
    bad.name = "byz";
    bad.flow_state_bytes = 4;
    bad.code = {
        {VrpOp::kLdSram, 0, 0, 0}, {VrpOp::kAddI, 0, 0, 1},
        {VrpOp::kStSram, 0, 0, 0}, {VrpOp::kMovI, 1, 0, k},
        {VrpOp::kBlt, 0, 1, 2},    {VrpOp::kDrop, 0, 0, 0},
        {VrpOp::kMovI, 1, 0, 0},   {VrpOp::kAndI, 0, 0, 1},
        {VrpOp::kBeq, 0, 1, 2},    {VrpOp::kSetQueue, 0, 0, 1},
        {VrpOp::kSend, 0, 0, 0},
    };
    upgrade.Begin(fid, bad, VrpImageChecksum(bad));
  }
  router.RunForMs(6.0);
  bench::RecordEvents(router.engine().events_run());

  UpgradePoint p;
  p.forwarded = router.stats().forwarded;
  p.decisions = upgrade.decisions();
  p.phase = upgrade.phase();
  p.rollbacks = upgrade.rollbacks().size();
  p.invariants_ok = RouterInvariants::CheckAll(router).ok();
  return p;
}

}  // namespace
}  // namespace npr

int main() {
  using namespace npr;
  using namespace npr::bench;

  Title("§4.7 experiment 1 — load routed through the Pentium (line rate 1.128 Mpps)");
  std::printf("%10s %14s %14s %14s %14s\n", "fraction", "pentium Kpps", "fast Mpps",
              "reg. drops", "pe-path drops");
  double max_lossless_kpps = 0;
  for (double f : {0.05, 0.10, 0.20, 0.275, 0.35, 0.45}) {
    auto p = RunPentiumShare(f);
    std::printf("%10.3f %14.1f %14.3f %14llu %14llu\n", p.offered_frac, p.pentium_kpps,
                p.fast_path_mpps, static_cast<unsigned long long>(p.regular_drops),
                static_cast<unsigned long long>(p.pentium_path_drops));
    if (p.regular_drops == 0 && p.pentium_path_drops == 0) {
      max_lossless_kpps = std::max(max_lossless_kpps, p.pentium_kpps);
    }
  }
  RowHeader();
  Row("max lossless Pentium throughput", 310, max_lossless_kpps, "Kpps");
  Note("each such packet receives 1510 cycles of Pentium service on top of");
  Note("the bridge cost — which is precisely what saturates 733 MHz at ~310 Kpps.");

  Title("§4.7 experiment 2 — exceptional-packet flood (base infrastructure, max rate)");
  std::printf("%12s %14s %14s %14s\n", "exceptional", "regular Mpps", "SA Kpps", "reg. drops");
  for (double f : {0.0, 0.05, 0.10, 0.25, 0.50}) {
    auto p = RunExceptionalFlood(f);
    std::printf("%12.2f %14.3f %14.1f %14llu\n", p.exceptional_frac, p.regular_mpps, p.sa_kpps,
                static_cast<unsigned long long>(p.regular_drops));
  }
  Note("regular packets are never dropped: the MicroEngines budget enough");
  Note("resources to classify and enqueue every packet at line speed; only the");
  Note("exceptional stream is clipped once the StrongARM saturates (§4.7).");

  Title("self-healing — Pentium hangs under a 20% Pentium-share load (health monitor on)");
  const HealPoint base = RunSelfHealing(/*faulty=*/false);
  const HealPoint heal = RunSelfHealing(/*faulty=*/true);
  RowHeader();
  Row("path A during Pentium hang (shedding)", base.during_mpps, heal.during_mpps, "Mpps");
  Row("path A after recovery", base.after_mpps, heal.after_mpps, "Mpps");
  std::printf("  pentium-bound packets shed while degraded: %llu (watchdog fired %llu times)\n",
              static_cast<unsigned long long>(heal.shed),
              static_cast<unsigned long long>(heal.watchdog));
  Note("the 'paper' column is the fault-free run of the same setup: shedding keeps");
  Note("path A at its line rate while the host hangs, and the rate returns to");
  Note("baseline once the hang clears (detect -> degrade -> shed -> recover).");

  Title("overload governor — adversarial load (gig ports; conforming 100 Kpps on port 0)");
  const OverloadPoint calm =
      RunAdversarialLoad(TrafficSpec::Adversarial::kNone, /*attack=*/false,
                         /*with_control=*/false);
  std::printf("%-16s %10s %10s %8s %8s %8s %8s %6s\n", "attack", "conforming", "escal.",
              "red", "police", "quench", "shed", "attr");
  std::printf("%-16s %10llu %10llu %8llu %8llu %8llu %8llu %6s\n", "(none)",
              static_cast<unsigned long long>(calm.conforming_delivered),
              static_cast<unsigned long long>(calm.escalations),
              static_cast<unsigned long long>(calm.red),
              static_cast<unsigned long long>(calm.policed),
              static_cast<unsigned long long>(calm.quenched),
              static_cast<unsigned long long>(calm.shed_host), calm.attribution_ok ? "ok" : "BAD");
  const TrafficSpec::Adversarial kModes[] = {
      TrafficSpec::Adversarial::kMinSizeFlood,
      TrafficSpec::Adversarial::kElephantFlows,
      TrafficSpec::Adversarial::kOnOffBurst,
      TrafficSpec::Adversarial::kFlowChurn,
  };
  OverloadPoint flood;  // the min-size run carries the control-delivery rows
  bool attribution_ok = calm.attribution_ok;
  RowHeader();
  for (const auto mode : kModes) {
    const bool min_size = mode == TrafficSpec::Adversarial::kMinSizeFlood;
    const OverloadPoint p = RunAdversarialLoad(mode, /*attack=*/true, min_size);
    if (min_size) {
      flood = p;
    }
    attribution_ok = attribution_ok && p.attribution_ok;
    std::printf("%-16s %10llu %10llu %8llu %8llu %8llu %8llu %6s\n", AdversarialName(mode),
                static_cast<unsigned long long>(p.conforming_delivered),
                static_cast<unsigned long long>(p.escalations),
                static_cast<unsigned long long>(p.red),
                static_cast<unsigned long long>(p.policed),
                static_cast<unsigned long long>(p.quenched),
                static_cast<unsigned long long>(p.shed_host), p.attribution_ok ? "ok" : "BAD");
    Row(std::string("overload: conforming goodput ratio (") + AdversarialName(mode) + ")", 1.0,
        static_cast<double>(p.conforming_delivered) /
            static_cast<double>(calm.conforming_delivered),
        "ratio");
  }
  Row("overload: control delivery under flood", 100.0,
      flood.control_sent > 0 ? 100.0 * static_cast<double>(flood.control_bridged) /
                                   static_cast<double>(flood.control_sent)
                             : 0.0,
      "%");
  Row("overload: control frames shed by governor", 0.0,
      static_cast<double>(flood.control_sent - flood.control_admitted), "frames");
  Row("overload: drop attribution reconciled", 1.0, attribution_ok ? 1.0 : 0.0, "bool");
  Note("conforming goodput is deliveries on the uncontended port: the governor's");
  Note("RED / policing / quench losses land on the flooded ports only. Control");
  Note("frames arrive through flooded port 1 and every one crosses to the Pentium");
  Note("(strict-priority carve-out), even while the ladder is at hard shed.");

  Title("overload governor — 8-node sharded cluster under line-rate flood");
  const ClusterFloodPoint cf = RunClusterFlood();
  std::printf("  governor escalations %llu, external deliveries %llu, nodes up %d/8\n",
              static_cast<unsigned long long>(cf.escalations),
              static_cast<unsigned long long>(cf.delivered), cf.nodes_up);
  RowHeader();
  Row("overload: spurious reconvergences under flood", 0.0,
      static_cast<double>(cf.reconvergences), "events");
  Row("overload: suspects raised under flood", 0.0, static_cast<double>(cf.suspects), "events");
  Row("overload: nodes up after flood", 8.0, static_cast<double>(cf.nodes_up), "nodes");
  Note("every node's governor is pressured (~3 line-rate ingress streams against");
  Note("~2.3 streams of path-A capacity), yet hellos and health probes ride the");
  Note("carve-out: overload never masquerades as node death.");

  Title("experiment 5 — hitless in-service upgrade (stateful forwarder, live traffic)");
  const UpgradePoint up_control = RunUpgrade(0);
  const UpgradePoint up_hitless = RunUpgrade(1);
  const UpgradePoint up_byz = RunUpgrade(2);
  const uint64_t up_lost = up_control.forwarded - up_hitless.forwarded;
  const bool hitless_identical = up_hitless.phase == UpgradePhase::kPromoted &&
                                 up_hitless.decisions == up_control.decisions;
  // Post-rollback bit-identity: the byzantine run must diverge, then realign
  // with the control stream for good once the retained image is back.
  size_t last_diff = 0;
  bool any_diff = false;
  const size_t n = std::min(up_control.decisions.size(), up_byz.decisions.size());
  for (size_t i = 0; i < n; ++i) {
    if (up_control.decisions[i] != up_byz.decisions[i]) {
      last_diff = i;
      any_diff = true;
    }
  }
  const bool rollback_identical =
      up_byz.phase == UpgradePhase::kRolledBack && up_byz.rollbacks == 1 && any_diff &&
      up_control.decisions.size() == up_byz.decisions.size() && last_diff + 100 < n;
  RowHeader();
  Row("upgrade: conforming packets lost (in-service)", 0.0, static_cast<double>(up_lost),
      "pkts");
  Row("upgrade: hitless run bit-identical to control", 1.0,
      hitless_identical ? 1.0 : 0.0, "bool");
  Row("upgrade: byzantine image rolled back bit-identically", 1.0,
      rollback_identical && up_byz.invariants_ok ? 1.0 : 0.0, "bool");
  Note("shadow validation, atomic cutover through a state-layout migration, and");
  Note("soak-guarded promotion: the upgraded run forwards every conforming packet");
  Note("with the same per-packet decisions as a never-upgraded run, and a bad");
  Note("image rolls back to a bit-identical stream (bench/upgrade has the full");
  Note("MTTD/MTTR and 8-node rolling-upgrade acceptance rows).");

  bench::EmitJson("robustness");
  return 0;
}
