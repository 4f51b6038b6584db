// Hitless in-service upgrade bench: the acceptance numbers for the upgrade
// orchestrator (src/core/upgrade.h) and the cluster rolling upgrade
// (src/health/rolling_upgrade.h), emitted as rows in BENCH_upgrade.json for
// ci/upgrade_smoke.sh.
//
// Three experiments:
//   1. hitless — a stateful MicroEngine forwarder is upgraded under live
//      traffic through a layout migration; the run must deliver every
//      conforming packet bit-identically to a never-upgraded control run,
//      with a cutover pause of a few hundred StrongARM cycles.
//   2. rollback — a byzantine image that conforms through shadow validation
//      and goes bad in soak; MTTD/MTTR of the auto-rollback, plus the
//      bit-identity of the post-rollback decision stream.
//   3. rolling — 8-node sharded cluster. A lossy/corrupting control plane
//      must still promote all 8 nodes; full UpgradeChaos (adding lost
//      cutover steps) may complete or abort, but must end version-
//      consistent, without a single spurious node-death suspicion.

#include <cinttypes>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster_control.h"
#include "src/core/upgrade.h"
#include "src/fault/fault_plan.h"
#include "src/fault/router_invariants.h"
#include "src/health/cluster_health.h"
#include "src/health/rolling_upgrade.h"

namespace npr {
namespace {

VrpProgram ParityQueue(int32_t counter_offset, uint32_t state_bytes, const char* name) {
  VrpProgram p;
  p.name = name;
  p.flow_state_bytes = state_bytes;
  p.code = {
      {VrpOp::kLdSram, 0, 0, counter_offset},
      {VrpOp::kAddI, 0, 0, 1},
      {VrpOp::kStSram, 0, 0, counter_offset},
      {VrpOp::kMovI, 1, 0, 0},
      {VrpOp::kAndI, 0, 0, 1},
      {VrpOp::kBeq, 0, 1, 2},
      {VrpOp::kSetQueue, 0, 0, 1},
      {VrpOp::kSend, 0, 0, 0},
  };
  return p;
}

// Conforms until the flow-state counter passes `misbehave_after`, then
// silently drops — a byzantine image built to survive shadow validation.
VrpProgram ByzantineAfter(int32_t misbehave_after, const char* name) {
  VrpProgram p;
  p.name = name;
  p.flow_state_bytes = 4;
  p.code = {
      {VrpOp::kLdSram, 0, 0, 0},
      {VrpOp::kAddI, 0, 0, 1},
      {VrpOp::kStSram, 0, 0, 0},
      {VrpOp::kMovI, 1, 0, misbehave_after},
      {VrpOp::kBlt, 0, 1, 2},
      {VrpOp::kDrop, 0, 0, 0},
      {VrpOp::kMovI, 1, 0, 0},
      {VrpOp::kAndI, 0, 0, 1},
      {VrpOp::kBeq, 0, 1, 2},
      {VrpOp::kSetQueue, 0, 0, 1},
      {VrpOp::kSend, 0, 0, 0},
  };
  return p;
}

struct SingleRun {
  uint64_t forwarded = 0;
  std::vector<uint64_t> decisions;
  UpgradeReport report;
  UpgradePhase phase = UpgradePhase::kIdle;
  std::vector<UpgradeRollbackRecord> rollbacks;
  bool invariants_ok = false;
};

// One single-router run: install the ParityQueue v1 forwarder, drive port-0
// traffic, optionally begin an upgrade to `next` after warmup. A null
// `next` is the control run (same seed, orchestrator attached but idle).
SingleRun RunSingle(uint64_t seed, const VrpProgram* next, const StateMigrator& migrate,
                    bool byzantine) {
  constexpr double kTrafficMs = 6.0;
  Router router{RouterConfig{}};
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(32);
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &v1;
  const InstallOutcome out = router.Install(req);
  const uint32_t fid = out.fid;
  const uint32_t handle = router.flow_table().Get(fid)->me_program_id;
  router.Start();
  UpgradeOrchestrator upgrade(router);
  upgrade.RecordDecisions(handle);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  TrafficSpec spec;
  spec.rate_pps = 200'000;
  spec.dst_spread = 16;
  gens.push_back(
      std::make_unique<TrafficGen>(router.engine(), router.port(0), spec, seed));
  gens.back()->Start(static_cast<SimTime>(kTrafficMs * kPsPerMs));

  router.RunForMs(0.5);
  if (next != nullptr) {
    VrpProgram image = *next;
    if (byzantine) {
      // Place the misbehaviour threshold past the shadow window but inside
      // soak: current counter + one shadow window's worth of packets + some.
      const uint32_t counter = router.chip().memory().sram_store().ReadU32(
          router.flow_table().Get(fid)->state_addr);
      image = ByzantineAfter(static_cast<int32_t>(counter + 60), "byz");
    }
    upgrade.Begin(fid, image, VrpImageChecksum(image), migrate);
  }
  router.RunForMs(kTrafficMs);
  bench::RecordEvents(router.engine().events_run());

  SingleRun r;
  r.forwarded = router.stats().forwarded;
  r.decisions = upgrade.decisions();
  r.report = upgrade.report();
  r.phase = upgrade.phase();
  r.rollbacks = upgrade.rollbacks();
  const InvariantReport inv = RouterInvariants::CheckAll(router);
  if (!inv.ok()) {
    std::printf("  INVARIANT VIOLATION (single run):\n%s", inv.ToString().c_str());
  }
  r.invariants_ok = inv.ok();
  return r;
}

// --- rolling upgrade over a sharded cluster ---

struct RollingRun {
  RollingUpgradeCoordinator::Status status = RollingUpgradeCoordinator::Status::kIdle;
  int promoted = 0;
  int on_new_image = 0;
  uint64_t resends = 0;
  uint64_t delivered = 0;  // external deliveries across all nodes
  uint64_t suspects = 0;
  bool invariants_ok = false;
};

// 8-node sharded cluster run under `plan`; when `roll` is set, a rolling
// upgrade of every node's forwarder starts after convergence. A non-rolling
// run with the same seeds is the delivery-ratio control.
RollingRun RunRolling(const FaultPlan& plan, uint64_t pump_seed, bool roll) {
  ClusterConfig ccfg;
  ccfg.nodes = 8;
  ccfg.internal_links = 2;
  ccfg.threads = 4;
  ccfg.node_config.fault_plan = plan;
  ClusterRouter cluster(std::move(ccfg));
  ClusterControlPlane control(cluster);
  control.Start();
  ClusterHealthConfig hc;
  hc.probe_max_attempts = 10;  // lossy-but-alive must not exhaust into suspicion
  ClusterHealthMonitor health(cluster, control, hc);

  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(0, 8, "v2");
  std::vector<uint32_t> fids;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    InstallRequest req;
    req.key = FlowKey::All();
    req.where = Where::kMicroEngine;
    req.program = &v1;
    fids.push_back(cluster.node(k).Install(req).fid);
  }
  cluster.Start();

  RollingUpgradeConfig rc;
  rc.node.shadow_window_ps = 100 * kPsPerUs;
  rc.node.shadow_min_packets = 16;
  rc.node.soak_window_ps = 150 * kPsPerUs;
  rc.node.soak_min_packets = 16;
  rc.node.step_deadline_ps = 200 * kPsPerUs;
  rc.node.probe_period_ps = 25 * kPsPerUs;
  rc.channel.link_delay_ps = 5 * kPsPerUs;
  rc.channel.ack_timeout_ps = 60 * kPsPerUs;
  rc.channel.backoff_base_ps = 30 * kPsPerUs;
  rc.channel.max_attempts = 5;
  RollingUpgradeCoordinator rolling(cluster, &health, rc);

  struct Pump {
    ClusterRouter* cluster;
    int node;
    Rng rng;
    SimTime gap;
    SimTime stop;
    void Tick() {
      const int g = node * cluster->external_ports_per_node() +
                    static_cast<int>(rng.Uniform(
                        static_cast<uint64_t>(cluster->external_ports_per_node())));
      PacketSpec spec;
      spec.dst_ip = cluster->ExternalDstIp(g, static_cast<uint16_t>(1 + rng.Uniform(16)));
      spec.src_ip = cluster->ExternalDstIp(node * cluster->external_ports_per_node(), 200);
      cluster->node(node).port(0).InjectFromWire(BuildPacket(spec));
      if (cluster->node_engine(node).now() + gap <= stop) {
        cluster->node_engine(node).ScheduleIn(gap, [this] { Tick(); });
      }
    }
  };
  constexpr double kPumpMs = 12.0;
  std::vector<std::unique_ptr<Pump>> pumps;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    auto pump = std::make_unique<Pump>(
        Pump{&cluster, k, Rng(FaultPlan::DeriveNodeSeed(pump_seed, k)),
             static_cast<SimTime>(kPsPerSec / 200'000),
             static_cast<SimTime>(kPumpMs * kPsPerMs)});
    cluster.node_engine(k).ScheduleIn(pump->gap, [p = pump.get()] { p->Tick(); });
    pumps.push_back(std::move(pump));
  }

  cluster.RunForMs(1.0);
  if (roll) {
    rolling.Start(fids, v2);
  }
  // Fixed horizon for every run — the delivery ratio compares rolling vs
  // control over identical offered load, so the runs must cover the same
  // simulated span regardless of when (or whether) the rollout settles.
  cluster.RunForMs(kPumpMs);
  // Quiesce before the conservation check: the offered 200 kpps slightly
  // exceeds a node's capacity with a general forwarder on every packet, so
  // an RX-side backlog outlives the pumps. Drain until the cluster stops
  // making forwarding progress — a fixed grace period can sample a packet
  // mid-handoff and read as a one-packet leak.
  for (auto& pump : pumps) {
    pump->stop = 0;
  }
  uint64_t quiesce_prev = 0;
  for (int i = 0; i < 40; ++i) {
    cluster.RunForMs(0.5);
    uint64_t progress = 0;
    for (int k = 0; k < cluster.num_nodes(); ++k) {
      progress += cluster.node(k).stats().input.packets + cluster.node(k).stats().forwarded;
    }
    if (progress == quiesce_prev) {
      break;
    }
    quiesce_prev = progress;
  }
  bench::RecordEvents(cluster.TotalEventsRun());

  RollingRun r;
  r.status = roll ? rolling.status() : RollingUpgradeCoordinator::Status::kIdle;
  r.promoted = rolling.nodes_promoted();
  r.on_new_image = rolling.NodesOnNewImage();
  r.resends = rolling.image_resends();
  r.suspects = health.suspects_raised();
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    r.delivered += cluster.node(k).stats().forwarded;
  }
  const InvariantReport inv = RouterInvariants::CheckCluster(cluster);
  if (!inv.ok()) {
    std::printf("  INVARIANT VIOLATION (rolling run):\n%s", inv.ToString().c_str());
  }
  r.invariants_ok = inv.ok();
  return r;
}

}  // namespace
}  // namespace npr

int main(int argc, char** argv) {
  using namespace npr;
  using namespace npr::bench;

  // Optional seed (ci/upgrade_smoke.sh runs a small matrix); it reseeds the
  // traffic and the fault draws, and every seed must hold the budgets.
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 0xfa017ULL;
  SetRunInfo(seed, "upgrade");
  bool all_ok = true;

  // --- experiment 1: hitless stateful upgrade ---
  Title("hitless upgrade — stateful forwarder, layout migration, live traffic");
  VrpProgram v2 = ParityQueue(4, 8, "v2");
  const StateMigrator migrate = [](std::span<const uint8_t> old_state,
                                   std::span<uint8_t> new_state) {
    if (old_state.size() < 4 || new_state.size() < 8) {
      return false;
    }
    std::copy_n(old_state.begin(), 4, new_state.begin() + 4);
    return true;
  };
  const SingleRun control = RunSingle(seed, nullptr, nullptr, false);
  const SingleRun hitless = RunSingle(seed, &v2, migrate, false);
  const uint64_t lost = control.forwarded - hitless.forwarded;
  uint64_t decision_diffs = 0;
  const size_t common = std::min(control.decisions.size(), hitless.decisions.size());
  for (size_t i = 0; i < common; ++i) {
    decision_diffs += control.decisions[i] != hitless.decisions[i] ? 1 : 0;
  }
  decision_diffs += control.decisions.size() - common + hitless.decisions.size() - common;
  RowHeader();
  Row("upgrade: conforming packets lost (hitless)", 0.0, static_cast<double>(lost), "pkts");
  Row("upgrade: decision-stream divergences (hitless)", 0.0,
      static_cast<double>(decision_diffs), "pkts");
  Row("upgrade: shadow divergence rate", 0.0,
      hitless.report.shadow_packets > 0
          ? static_cast<double>(hitless.report.shadow_divergences) /
                static_cast<double>(hitless.report.shadow_packets)
          : 1.0,
      "ratio");
  Row("upgrade: cutover pause", 200.0,
      static_cast<double>(hitless.report.cutover_pause_cycles), "cycles");
  std::printf("  phase %s, %" PRIu64 " shadow + %" PRIu64 " soak packets, %" PRIu64
              " state bytes migrated\n",
              UpgradePhaseName(hitless.phase), hitless.report.shadow_packets,
              hitless.report.soak_packets, hitless.report.migrated_bytes);
  Note("paper pause = (1 old + 2 new state words + image flip + table repoint)");
  Note("x 40 cycles, the §4.5 StrongARM access cost; the double-buffered image");
  Note("itself was staged outside the atomic window and costs it nothing.");
  all_ok = all_ok && hitless.phase == UpgradePhase::kPromoted && lost == 0 &&
           decision_diffs == 0 && control.invariants_ok && hitless.invariants_ok;

  // --- experiment 2: byzantine image, soak rollback ---
  Title("auto-rollback — byzantine image goes bad in soak");
  const SingleRun byz = RunSingle(seed, &v2, nullptr, /*byzantine=*/true);
  double mttd_us = 0;
  double mttr_us = 0;
  if (!byz.rollbacks.empty()) {
    const UpgradeRollbackRecord& rec = byz.rollbacks.front();
    mttd_us = static_cast<double>(rec.detected_at - rec.fault_at) / kPsPerUs;
    mttr_us = static_cast<double>(rec.recovered_at - rec.fault_at) / kPsPerUs;
  }
  // Post-rollback bit-identity: the decision streams must realign and stay
  // aligned once the retained image and state are live again.
  size_t last_diff = 0;
  bool any_diff = false;
  const size_t n = std::min(control.decisions.size(), byz.decisions.size());
  for (size_t i = 0; i < n; ++i) {
    if (control.decisions[i] != byz.decisions[i]) {
      last_diff = i;
      any_diff = true;
    }
  }
  const bool suffix_identical = control.decisions.size() == byz.decisions.size() &&
                                any_diff && last_diff + 100 < n;
  RowHeader();
  Row("upgrade: rollback MTTD", 250.0, mttd_us, "us");
  Row("upgrade: rollback MTTR", 300.0, mttr_us, "us");
  Row("upgrade: post-rollback stream bit-identical", 1.0, suffix_identical ? 1.0 : 0.0,
      "bool");
  std::printf("  phase %s, %zu rollback episode(s), last divergence at decision %zu/%zu\n",
              UpgradePhaseName(byz.phase), byz.rollbacks.size(), last_diff, n);
  Note("MTTD = first diverged packet to the rollback decision (gated by the");
  Note("soak evidence bar); MTTR adds the revert itself. The soak shadow kept");
  Note("the retained state current, so recovery realigns bit-for-bit.");
  all_ok = all_ok && byz.phase == UpgradePhase::kRolledBack && suffix_identical &&
           byz.invariants_ok;

  // --- experiment 3: cluster rolling upgrade ---
  Title("rolling upgrade — 8-node sharded cluster");
  FaultPlan lossy = FaultPlan::UpgradeChaos(seed);
  lossy.upgrade_crash_p = 0;  // lossy+corrupting channel, but steps survive
  const RollingRun base = RunRolling(FaultPlan{}, seed, /*roll=*/false);
  const RollingRun clean = RunRolling(lossy, seed, /*roll=*/true);
  const RollingRun chaos = RunRolling(FaultPlan::UpgradeChaos(seed), seed, /*roll=*/true);
  const bool chaos_consistent =
      (chaos.status == RollingUpgradeCoordinator::Status::kDone &&
       chaos.on_new_image == 8) ||
      (chaos.status == RollingUpgradeCoordinator::Status::kAborted &&
       chaos.on_new_image == 0);
  RowHeader();
  Row("upgrade: rolling nodes promoted (lossy channel)", 8.0,
      static_cast<double>(clean.promoted), "nodes");
  Row("upgrade: rolling delivery ratio vs no-upgrade run", 1.0,
      base.delivered > 0
          ? static_cast<double>(clean.delivered) / static_cast<double>(base.delivered)
          : 0.0,
      "ratio");
  Row("upgrade: rolling version-consistent under full chaos", 1.0,
      chaos_consistent ? 1.0 : 0.0, "bool");
  Row("upgrade: suspects raised during rolling upgrades", 0.0,
      static_cast<double>(clean.suspects + chaos.suspects), "events");
  std::printf("  lossy: %s, %d/8 promoted, %" PRIu64 " image resends, %" PRIu64
              " delivered (control %" PRIu64 ")\n",
              RollingUpgradeCoordinator::StatusName(clean.status), clean.promoted, clean.resends,
              clean.delivered, base.delivered);
  std::printf("  chaos: %s, %d on new image, %" PRIu64 " image resends\n",
              RollingUpgradeCoordinator::StatusName(chaos.status), chaos.on_new_image, chaos.resends);
  Note("a 15% lossy, 20% corrupting control channel must still promote 8/8 —");
  Note("checksums reject corrupted copies and fresh sends redraw the link.");
  Note("full chaos adds lost cutover steps (25%): the rollout may complete or");
  Note("abort, but the cluster must end version-consistent and no upgrade may");
  Note("ever be mistaken for a node death.");
  all_ok = all_ok && clean.promoted == 8 && chaos_consistent &&
           clean.suspects + chaos.suspects == 0 && base.invariants_ok &&
           clean.invariants_ok && chaos.invariants_ok;

  EmitJson("upgrade");
  return all_ok ? 0 : 1;
}
