// Hitless in-service upgrade: ISTORE double-buffer staging, checksum-gated
// installs, flow-state SRAM accounting, shadow validation, atomic cutover
// with state migration, auto-rollback (byzantine image, trap, crashed
// cutover step), control-channel image shipment, and the cluster rolling
// upgrade under UpgradeChaos.
//
// The UpgradeCluster suite runs the sharded cluster and is included in
// ci/sanitize.sh's ThreadSanitizer sweep.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_control.h"
#include "src/core/router.h"
#include "src/core/upgrade.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/router_invariants.h"
#include "src/health/cluster_health.h"
#include "src/health/control_channel.h"
#include "src/health/health_monitor.h"
#include "src/health/rolling_upgrade.h"
#include "src/net/traffic_gen.h"
#include "src/sim/random.h"

namespace npr {
namespace {

std::unique_ptr<Router> MakeRouter(RouterConfig cfg = RouterConfig{}) {
  auto router = std::make_unique<Router>(std::move(cfg));
  for (int p = 0; p < router->num_ports(); ++p) {
    router->AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router->WarmRouteCache(32);
  return router;
}

void DriveTraffic(Router& router, std::vector<std::unique_ptr<TrafficGen>>* gens,
                  double traffic_ms, int ports = 1, uint64_t rate_pps = 200'000) {
  for (int p = 0; p < ports; ++p) {
    TrafficSpec spec;
    spec.rate_pps = rate_pps;
    spec.dst_spread = 16;
    gens->push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                 static_cast<uint64_t>(700 + p)));
    gens->back()->Start(static_cast<SimTime>(traffic_ms * kPsPerMs));
  }
}

// Counts a packet in flow state at `counter_offset`, then picks the queue by
// the counter's parity and sends. Outwardly deterministic in the counter, so
// two copies stay in lockstep iff their state regions agree — which is what
// the shadow/soak comparisons and the rollback bit-identity tests exercise.
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
      {VrpOp::kBeq, 0, 1, 2},  // even parity: skip the queue bump
      {VrpOp::kSetQueue, 0, 0, 1},
      {VrpOp::kSend, 0, 0, 0},
  };
  return p;
}

// Same contract as ParityQueue(0, 4, ...) until the counter exceeds
// `misbehave_after`, then silently drops every conforming packet — a
// byzantine image that survives shadow validation and goes bad in soak.
VrpProgram ByzantineAfter(int32_t misbehave_after, const char* name) {
  VrpProgram p;
  p.name = name;
  p.flow_state_bytes = 4;
  p.code = {
      {VrpOp::kLdSram, 0, 0, 0},
      {VrpOp::kAddI, 0, 0, 1},
      {VrpOp::kStSram, 0, 0, 0},
      {VrpOp::kMovI, 1, 0, misbehave_after},
      {VrpOp::kBlt, 0, 1, 2},  // counter < threshold: still conforming
      {VrpOp::kDrop, 0, 0, 0},
      {VrpOp::kMovI, 1, 0, 0},
      {VrpOp::kAndI, 0, 1, 1},
      {VrpOp::kBeq, 0, 1, 2},
      {VrpOp::kSetQueue, 0, 0, 1},
      {VrpOp::kSend, 0, 0, 0},
  };
  // Keep R0's counter for the parity pick below the branch.
  p.code[7] = {VrpOp::kAndI, 0, 0, 1};
  return p;
}

uint32_t InstallGeneralMe(Router& router, const VrpProgram& program) {
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &program;
  const InstallOutcome out = router.Install(req);
  EXPECT_TRUE(out.ok) << out.error;
  return out.fid;
}

template <typename Pred>
bool RunUntil(Router& router, Pred pred, double step_ms = 0.05, double deadline_ms = 30.0) {
  for (double t = 0; t < deadline_ms && !pred(); t += step_ms) {
    router.RunForMs(step_ms);
  }
  return pred();
}

// --- ISTORE double-buffer staging --------------------------------------

TEST(UpgradeIstore, StagingLifecycleSwapsWithoutChangingTheHandle) {
  auto router = MakeRouter();
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(4, 8, "v2");
  const uint32_t fid = InstallGeneralMe(*router, v1);
  const uint32_t handle = router->flow_table().Get(fid)->me_program_id;
  IStoreLayout& istore = router->istore();
  const uint32_t active_slots = istore.used_slots();

  // Staged slots count against capacity; the active image keeps serving.
  ASSERT_TRUE(istore.StageReplace(handle, v2, 0x9000));
  EXPECT_GT(istore.used_slots(), active_slots);
  EXPECT_EQ(istore.Get(handle)->name, "v1");
  ASSERT_NE(istore.Staged(handle), nullptr);
  EXPECT_EQ(istore.Staged(handle)->name, "v2");
  EXPECT_FALSE(istore.StageReplace(handle, v2, 0x9000)) << "one replacement in flight";

  // Cancel restores the original accounting.
  ASSERT_TRUE(istore.CancelReplace(handle));
  EXPECT_EQ(istore.used_slots(), active_slots);
  EXPECT_EQ(istore.Staged(handle), nullptr);

  // Commit flips the image under the same handle; revert flips it back.
  ASSERT_TRUE(istore.StageReplace(handle, v2, 0x9000));
  ASSERT_TRUE(istore.CommitReplace(handle));
  EXPECT_EQ(istore.Get(handle)->name, "v2");
  EXPECT_TRUE(istore.HasRetained(handle));
  ASSERT_TRUE(istore.RevertReplace(handle));
  EXPECT_EQ(istore.Get(handle)->name, "v1");
  EXPECT_FALSE(istore.HasRetained(handle));
  EXPECT_EQ(istore.used_slots(), active_slots);

  // Promote drops the retained half for good.
  ASSERT_TRUE(istore.StageReplace(handle, v2, 0x9000));
  ASSERT_TRUE(istore.CommitReplace(handle));
  ASSERT_TRUE(istore.PromoteReplace(handle));
  EXPECT_EQ(istore.Get(handle)->name, "v2");
  EXPECT_FALSE(istore.HasRetained(handle));
  EXPECT_FALSE(istore.RevertReplace(handle)) << "nothing retained after promote";
}

// --- checksum-gated install (satellite: typed InstallOutcome) -----------

TEST(UpgradeChecksum, CorruptedImageIsRefusedAtInstallWithTypedReason) {
  auto router = MakeRouter();
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &v1;
  req.image_checksum = VrpImageChecksum(v1) ^ 1;  // one flipped bit somewhere

  const InstallOutcome bad = router->Install(req);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.reject, InstallReject::kChecksumMismatch);
  EXPECT_EQ(router->stats().upgrade_checksum_rejects, 1u);
  EXPECT_EQ(router->flow_table().size(), 0u);

  req.image_checksum = VrpImageChecksum(v1);
  const InstallOutcome good = router->Install(req);
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.reject, InstallReject::kNone);
}

TEST(UpgradeChecksum, OrchestratorRefusesMismatchedImageBeforeTouchingAnything) {
  auto router = MakeRouter();
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(0, 4, "v2");
  const uint32_t fid = InstallGeneralMe(*router, v1);
  router->Start();
  UpgradeOrchestrator upgrade(*router);

  const uint32_t outstanding = router->sram_arena().outstanding();
  EXPECT_FALSE(upgrade.Begin(fid, v2, VrpImageChecksum(v2) ^ (1ull << 17)));
  EXPECT_EQ(upgrade.last_error(), "image checksum mismatch");
  EXPECT_EQ(upgrade.phase(), UpgradePhase::kIdle);
  EXPECT_EQ(router->sram_arena().outstanding(), outstanding) << "no state allocated";
  EXPECT_EQ(router->stats().upgrade_checksum_rejects, 1u);
}

// --- flow-state SRAM accounting (satellite: Remove releases state) ------

TEST(UpgradeMemory, RemoveReleasesFlowStateSramAndLedgerReconciles) {
  auto router = MakeRouter();
  const uint32_t baseline = router->sram_arena().outstanding();
  EXPECT_EQ(baseline, router->sram_infra_bytes());

  VrpProgram v1 = ParityQueue(0, 4, "v1");
  const uint32_t fid = InstallGeneralMe(*router, v1);
  EXPECT_EQ(router->sram_arena().outstanding(), baseline + 4);
  EXPECT_TRUE(RouterInvariants::CheckAll(*router).ok());

  ASSERT_TRUE(router->Remove(fid));
  EXPECT_EQ(router->sram_arena().outstanding(), baseline)
      << "Remove must release the flow-state region";
  EXPECT_TRUE(RouterInvariants::CheckAll(*router).ok());

  // The freed region is reusable: a second install fits where the first sat.
  const uint32_t fid2 = InstallGeneralMe(*router, v1);
  EXPECT_EQ(router->sram_arena().outstanding(), baseline + 4);
  ASSERT_TRUE(router->Remove(fid2));
  EXPECT_EQ(router->sram_arena().outstanding(), baseline);
}

// --- hitless stateful upgrade -------------------------------------------

TEST(UpgradeHitless, StatefulUpgradeDeliversEveryConformingPacketBitIdentically) {
  // v2 keeps its counter at a different offset in a wider state record; the
  // layout map carries the live value across. A correct migration means the
  // parity sequence never skips, so the upgraded run's per-packet decisions
  // are bit-identical to a never-upgraded control run end to end.
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(4, 8, "v2");
  StateMigrator migrate = [](std::span<const uint8_t> old_state,
                             std::span<uint8_t> new_state) {
    if (old_state.size() < 4 || new_state.size() < 8) {
      return false;
    }
    std::copy_n(old_state.begin(), 4, new_state.begin() + 4);
    return true;
  };

  uint64_t forwarded[2] = {0, 0};
  std::vector<uint64_t> decisions[2];
  UpgradeReport report;
  for (int upgraded = 0; upgraded < 2; ++upgraded) {
    auto router = MakeRouter();
    const uint32_t fid = InstallGeneralMe(*router, v1);
    const uint32_t handle = router->flow_table().Get(fid)->me_program_id;
    router->Start();
    UpgradeOrchestrator upgrade(*router);
    upgrade.RecordDecisions(handle);

    std::vector<std::unique_ptr<TrafficGen>> gens;
    DriveTraffic(*router, &gens, 4.0);
    router->RunForMs(0.5);
    if (upgraded == 1) {
      ASSERT_TRUE(upgrade.Begin(fid, v2, VrpImageChecksum(v2), migrate))
          << upgrade.last_error();
    }
    router->RunForMs(4.5);

    if (upgraded == 1) {
      ASSERT_EQ(upgrade.phase(), UpgradePhase::kPromoted) << upgrade.last_error();
      report = upgrade.report();
    }
    forwarded[upgraded] = router->stats().forwarded;
    decisions[upgraded] = upgrade.decisions();
    const InvariantReport inv = RouterInvariants::CheckAll(*router);
    EXPECT_TRUE(inv.ok()) << inv.ToString();
    EXPECT_EQ(upgrade.held_state_bytes(), 0u);
  }

  // Zero conforming loss and full bit-identity against the control run.
  EXPECT_EQ(forwarded[1], forwarded[0]);
  ASSERT_EQ(decisions[1].size(), decisions[0].size());
  EXPECT_EQ(decisions[1], decisions[0])
      << "an upgraded run must be indistinguishable packet-for-packet";

  EXPECT_GT(report.shadow_packets, 0u);
  EXPECT_EQ(report.shadow_divergences, 0u);
  EXPECT_GT(report.soak_packets, 0u);
  EXPECT_EQ(report.soak_divergences, 0u);
  EXPECT_EQ(report.migrated_bytes, 12u);  // 4 read + 8 written, twice migrated
  EXPECT_GT(report.cutover_pause_cycles, 0u);
  EXPECT_LT(report.cutover_pause_cycles, 1000u) << "the atomic window stays tiny";
}

TEST(UpgradeHitless, IdleOrchestratorIsInvisibleToForwarding) {
  uint64_t forwarded[2] = {0, 0};
  uint64_t events[2] = {0, 0};
  for (int attached = 0; attached < 2; ++attached) {
    auto router = MakeRouter();
    VrpProgram v1 = ParityQueue(0, 4, "v1");
    InstallGeneralMe(*router, v1);
    router->Start();
    std::unique_ptr<UpgradeOrchestrator> upgrade;
    if (attached == 1) {
      upgrade = std::make_unique<UpgradeOrchestrator>(*router);
    }
    std::vector<std::unique_ptr<TrafficGen>> gens;
    DriveTraffic(*router, &gens, 3.0);
    router->RunForMs(3.5);
    forwarded[attached] = router->stats().forwarded;
    events[attached] = router->engine().events_run();
  }
  EXPECT_EQ(forwarded[1], forwarded[0]);
  EXPECT_EQ(events[1], events[0]) << "an idle orchestrator schedules nothing";
}

// --- auto-rollback ------------------------------------------------------

TEST(UpgradeRollback, ByzantineImageRollsBackInSoakAndRestoresBitIdentity) {
  // The byzantine image conforms until its packet counter passes a
  // threshold placed just beyond the shadow window, then drops everything.
  // Soak catches the divergence and rolls back to the retained image and
  // state; from that point the decision stream must realign with a
  // never-upgraded control run — the retained state was kept current by the
  // reverse shadow, so recovery is bit-identical, not merely functional.
  VrpProgram v1 = ParityQueue(0, 4, "v1");

  std::vector<uint64_t> decisions[2];
  size_t rollback_count = 0;
  UpgradeRollbackRecord record;
  SimTime cutover_at = 0;
  size_t upgrade_events = 0;
  for (int upgraded = 0; upgraded < 2; ++upgraded) {
    auto router = MakeRouter();
    const uint32_t fid = InstallGeneralMe(*router, v1);
    const uint32_t handle = router->flow_table().Get(fid)->me_program_id;
    const uint32_t state_addr = router->flow_table().Get(fid)->state_addr;
    router->Start();
    HealthMonitor health(*router);
    UpgradeOrchestrator upgrade(*router);
    upgrade.RecordDecisions(handle);

    std::vector<std::unique_ptr<TrafficGen>> gens;
    DriveTraffic(*router, &gens, 6.0);
    router->RunForMs(0.5);
    if (upgraded == 1) {
      // Misbehave roughly one shadow window after cutover: past shadow
      // validation, well inside the soak window.
      const uint32_t counter =
          router->chip().memory().sram_store().ReadU32(state_addr);
      VrpProgram bad = ByzantineAfter(static_cast<int32_t>(counter + 60), "byz");
      ASSERT_TRUE(upgrade.Begin(fid, bad, VrpImageChecksum(bad))) << upgrade.last_error();
    }
    router->RunForMs(6.0);

    decisions[upgraded] = upgrade.decisions();
    if (upgraded == 1) {
      ASSERT_EQ(upgrade.phase(), UpgradePhase::kRolledBack) << upgrade.last_error();
      ASSERT_EQ(upgrade.rollbacks().size(), 1u);
      record = upgrade.rollbacks()[0];
      cutover_at = upgrade.report().cutover_at;
      rollback_count = upgrade.rollbacks().size();
      EXPECT_EQ(router->stats().upgrade_rollbacks, 1u);
      EXPECT_GT(router->stats().upgrade_divergences, 0u);
      // HealthMonitor folds the episode into the uniform recovery stream.
      for (const RecoveryEvent& ev : health.events()) {
        upgrade_events += ev.kind == RecoveryEvent::Kind::kUpgradeRollback ? 1 : 0;
      }
      const InvariantReport inv = RouterInvariants::CheckAll(*router);
      EXPECT_TRUE(inv.ok()) << inv.ToString();
    }
  }

  ASSERT_EQ(rollback_count, 1u);
  EXPECT_EQ(upgrade_events, 1u);
  // Detected and recovered within the soak window, with ordered timestamps.
  EXPECT_GE(record.detected_at, record.fault_at);
  EXPECT_GE(record.recovered_at, record.detected_at);
  EXPECT_GT(record.fault_at, cutover_at) << "the image went bad after cutover";
  EXPECT_LE(record.recovered_at - cutover_at, UpgradeConfig{}.soak_window_ps * 2);

  // Decisions: identical prefix, a byzantine window, then an identical
  // suffix once the retained image and state are back.
  ASSERT_EQ(decisions[1].size(), decisions[0].size());
  size_t first_diff = decisions[0].size();
  size_t last_diff = 0;
  for (size_t i = 0; i < decisions[0].size(); ++i) {
    if (decisions[0][i] != decisions[1][i]) {
      first_diff = std::min(first_diff, i);
      last_diff = i;
    }
  }
  ASSERT_LT(first_diff, decisions[0].size()) << "the byzantine image must diverge";
  EXPECT_LT(last_diff + 100, decisions[0].size())
      << "post-rollback forwarding must realign with the control run";
}

TEST(UpgradeRollback, TrapDuringSoakTriggersRollbackWithTightMttd) {
  FaultPlan plan;
  plan.vrp_trap_p = 1.0;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  ASSERT_NE(router->fault_injector(), nullptr);
  router->fault_injector()->set_armed(false);

  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(0, 4, "v2");
  v2.code.insert(v2.code.begin(), {VrpOp::kNop, 0, 0, 0});  // distinct image, same behavior
  const uint32_t fid = InstallGeneralMe(*router, v1);
  router->Start();
  UpgradeOrchestrator upgrade(*router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  DriveTraffic(*router, &gens, 10.0);
  router->RunForMs(0.3);
  ASSERT_TRUE(upgrade.Begin(fid, v2)) << upgrade.last_error();

  ASSERT_TRUE(RunUntil(*router, [&] { return upgrade.phase() == UpgradePhase::kSoak; }))
      << "never reached soak: " << UpgradePhaseName(upgrade.phase());
  // Arm the injector only now: the very next packet the new image serves
  // traps, and any trap during soak must roll the upgrade back.
  router->fault_injector()->set_armed(true);
  const SimTime armed_at = router->engine().now();
  ASSERT_TRUE(
      RunUntil(*router, [&] { return upgrade.phase() == UpgradePhase::kRolledBack; }, 0.01))
      << UpgradePhaseName(upgrade.phase());
  router->fault_injector()->set_armed(false);
  router->RunForMs(1.0);

  ASSERT_EQ(upgrade.rollbacks().size(), 1u);
  const UpgradeRollbackRecord& rec = upgrade.rollbacks()[0];
  EXPECT_NE(rec.reason.find("trapped"), std::string::npos) << rec.reason;
  EXPECT_GE(rec.fault_at, armed_at);
  EXPECT_EQ(rec.detected_at, rec.fault_at) << "the trap itself is the detection";
  // Recovery is the next scheduled event after the classify call returns.
  EXPECT_LE(rec.recovered_at - rec.detected_at, 10 * kPsPerUs);
  const InvariantReport inv = RouterInvariants::CheckAll(*router);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

TEST(UpgradeCrash, CutoverCrashIsCaughtByWatchdogAndAbortsCleanly) {
  FaultPlan plan;
  plan.upgrade_crash_p = 1.0;  // every cutover step is lost mid-way
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(4, 8, "v2");

  uint64_t forwarded[2] = {0, 0};
  for (int upgraded = 0; upgraded < 2; ++upgraded) {
    RouterConfig cfg;
    cfg.fault_plan = plan;
    auto router = MakeRouter(std::move(cfg));
    const uint32_t fid = InstallGeneralMe(*router, v1);
    const uint32_t handle = router->flow_table().Get(fid)->me_program_id;
    router->Start();
    UpgradeOrchestrator upgrade(*router);

    std::vector<std::unique_ptr<TrafficGen>> gens;
    DriveTraffic(*router, &gens, 4.0);
    router->RunForMs(0.5);
    if (upgraded == 1) {
      ASSERT_TRUE(upgrade.Begin(fid, v2)) << upgrade.last_error();
    }
    router->RunForMs(4.0);
    forwarded[upgraded] = router->stats().forwarded;

    if (upgraded == 1) {
      EXPECT_EQ(upgrade.phase(), UpgradePhase::kAborted);
      EXPECT_NE(upgrade.report().error.find("watchdog"), std::string::npos)
          << upgrade.report().error;
      EXPECT_EQ(router->stats().upgrade_aborts, 1u);
      // The abort is an episode with a detection latency of one deadline.
      ASSERT_EQ(upgrade.rollbacks().size(), 1u);
      EXPECT_EQ(upgrade.rollbacks()[0].detected_at - upgrade.rollbacks()[0].fault_at,
                UpgradeConfig{}.step_deadline_ps);
      // The commit never happened: the old image never stopped serving and
      // the staged resources were released.
      EXPECT_EQ(router->istore().Get(handle)->name, "v1");
      EXPECT_FALSE(router->istore().HasRetained(handle));
      EXPECT_EQ(upgrade.held_state_bytes(), 0u);
      const InvariantReport inv = RouterInvariants::CheckAll(*router);
      EXPECT_TRUE(inv.ok()) << inv.ToString();
    }
  }
  EXPECT_EQ(forwarded[1], forwarded[0]) << "an aborted upgrade loses nothing";
}

// --- control channel ----------------------------------------------------

TEST(UpgradeChannel, CorruptedImageInTransitIsRefusedAndResendSucceeds) {
  FaultPlan plan;
  plan.image_corrupt_p = 1.0;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(4, 8, "v2");
  const uint32_t fid = InstallGeneralMe(*router, v1);
  router->Start();
  UpgradeOrchestrator upgrade(*router);
  ControlChannel channel(*router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  DriveTraffic(*router, &gens, 4.0);

  // Every crossing corrupts the image; the checksum refuses it on arrival.
  CtrlResult refused;
  channel.Upgrade(fid, v2, VrpImageChecksum(v2), [&](const CtrlResult& r) { refused = r; });
  router->RunForMs(1.0);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("checksum"), std::string::npos) << refused.error;
  EXPECT_GE(router->stats().upgrade_checksum_rejects, 1u);
  EXPECT_EQ(upgrade.phase(), UpgradePhase::kIdle) << "nothing may start from a bad image";

  // A clean resend (corruption disarmed) starts the episode.
  router->fault_injector()->set_armed(false);
  CtrlResult accepted;
  channel.Upgrade(fid, v2, VrpImageChecksum(v2), [&](const CtrlResult& r) { accepted = r; });
  router->RunForMs(1.0);
  EXPECT_TRUE(accepted.ok) << accepted.error;
  EXPECT_NE(upgrade.phase(), UpgradePhase::kIdle);
}

TEST(UpgradeChannel, RetryExhaustionSurfacesTerminalFailure) {
  // Satellite: a drop-all link must end in a *reported* failure, not a
  // silent hang — failed(seq) flips, the callback fires with ok=false, and
  // every attempt was counted as a timeout.
  FaultPlan plan;
  plan.ctrl_drop_p = 1.0;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  router->Start();

  ControlChannelConfig cc;
  cc.ack_timeout_ps = 100 * kPsPerUs;
  cc.backoff_base_ps = 50 * kPsPerUs;
  cc.max_attempts = 4;
  ControlChannel channel(*router, cc);

  CtrlResult result;
  bool called = false;
  const uint64_t seq = channel.GetData(0, [&](const CtrlResult& r) {
    called = true;
    result = r;
  });
  router->RunForMs(5.0);

  EXPECT_TRUE(called);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("max attempts exhausted"), std::string::npos) << result.error;
  EXPECT_TRUE(channel.failed(seq));
  EXPECT_FALSE(channel.acked(seq));
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(router->stats().ctrl_timeouts, 4u);
  EXPECT_EQ(channel.executed_count(), 0u) << "nothing crossed a drop-all link";
}

// --- cluster rolling upgrade (sharded; in the TSan sweep) ---------------

TEST(UpgradeCluster, RollingUpgradeUnderChaosEndsConsistentWithoutFalseSuspicion) {
  ClusterConfig ccfg;
  ccfg.nodes = 8;
  ccfg.internal_links = 2;
  ccfg.threads = 4;
  ccfg.node_config.fault_plan = FaultPlan::UpgradeChaos();
  ClusterRouter cluster(std::move(ccfg));
  ClusterControlPlane control(cluster);
  control.Start();

  // Chaos drops ~15% and delays ~10% of probe crossings, so a single
  // attempt fails about a quarter of the time; at the default 3 attempts a
  // probe exhausts every ~60 tries, which over hundreds of probes would
  // raise false suspicions. Ten attempts push exhaustion below 1e-6 per
  // probe. Genuine death detection is not under test here — UpgradeChaos
  // kills no nodes, so every suspicion would be spurious.
  ClusterHealthConfig hc;
  hc.probe_max_attempts = 10;
  ClusterHealthMonitor health(cluster, control, hc);

  // v2 widens the state record but keeps the counter at offset 0, so the
  // coordinator's identity migration preserves behavior in both directions
  // (forward upgrades and abort-path downgrades alike).
  VrpProgram v1 = ParityQueue(0, 4, "v1");
  VrpProgram v2 = ParityQueue(0, 8, "v2");
  std::vector<uint32_t> fids;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    InstallRequest req;
    req.key = FlowKey::All();
    req.where = Where::kMicroEngine;
    req.program = &v1;
    const InstallOutcome out = cluster.node(k).Install(req);
    ASSERT_TRUE(out.ok) << "node " << k << ": " << out.error;
    fids.push_back(out.fid);
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

  // Per-node local traffic so every node's general forwarder sees enough
  // packets for its shadow and soak evidence bars.
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
  std::vector<std::unique_ptr<Pump>> pumps;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    auto pump = std::make_unique<Pump>(
        Pump{&cluster, k, Rng(FaultPlan::DeriveNodeSeed(0x9a27ULL, k)),
             static_cast<SimTime>(kPsPerSec / 200'000), 60 * kPsPerMs});
    cluster.node_engine(k).ScheduleIn(pump->gap, [p = pump.get()] { p->Tick(); });
    pumps.push_back(std::move(pump));
  }

  cluster.RunForMs(1.0);  // control-plane convergence + warm counters
  ASSERT_TRUE(rolling.Start(fids, v2));

  bool settled = false;
  for (int i = 0; i < 200 && !settled; ++i) {
    cluster.RunForMs(0.25);
    settled = rolling.status() != RollingUpgradeCoordinator::Status::kRunning &&
              rolling.status() != RollingUpgradeCoordinator::Status::kDowngrading;
  }
  ASSERT_TRUE(settled) << "rollout never settled; stuck at node " << rolling.current_node();
  // Stop the pumps and drain so the final conservation check sees a quiet
  // cluster (a packet mid-hop is invisible to the per-node in-flight sum).
  // The offered rate slightly exceeds node capacity with a general forwarder
  // installed, so drain to quiescence, not for a fixed grace period.
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

  // Completes or aborts cleanly — never an inconsistent cluster.
  const auto status = rolling.status();
  EXPECT_TRUE(status == RollingUpgradeCoordinator::Status::kDone ||
              status == RollingUpgradeCoordinator::Status::kAborted)
      << "status=" << static_cast<int>(status) << " error=" << rolling.error();
  if (status == RollingUpgradeCoordinator::Status::kDone) {
    EXPECT_EQ(rolling.NodesOnNewImage(), cluster.num_nodes());
    EXPECT_EQ(rolling.nodes_promoted(), cluster.num_nodes());
  } else {
    EXPECT_EQ(rolling.NodesOnNewImage(), 0) << "abort must downgrade promoted nodes";
  }

  // Upgrade-aware federated health: chaos plus eight cutovers, yet no node
  // was ever suspected dead.
  EXPECT_EQ(health.suspects_raised(), 0u);
  EXPECT_GT(health.probes_acked(), 0u);

  const InvariantReport inv = RouterInvariants::CheckCluster(cluster);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

}  // namespace
}  // namespace npr
