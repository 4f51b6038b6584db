// Pipeline-behavior tests: isolation modes, ablation paths, allocator
// flavors, interrupt mode, SA-level flows, budget scaling, measurement
// windows — the configuration space the benches rely on.

#include <gtest/gtest.h>

#include <set>

#include "src/core/router.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/net/traffic_gen.h"

namespace npr {
namespace {

RouterConfig Infinite() {
  RouterConfig cfg;
  cfg.port_mode = PortMode::kInfiniteFifo;
  cfg.enable_pentium = false;
  cfg.enable_strongarm = false;
  return cfg;
}

void AddRoutes(Router& router) {
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(8);
}

double RunMpps(RouterConfig cfg, double warm_ms = 2.0, double ms = 6.0) {
  Router router(std::move(cfg));
  AddRoutes(router);
  router.Start();
  router.RunForMs(warm_ms);
  router.StartMeasurement();
  router.RunForMs(ms);
  return router.ForwardingRateMpps();
}

// --- isolation modes ---

TEST(StageModes, MagicDrainCountsInputEnqueues) {
  RouterConfig cfg = Infinite();
  cfg.output_contexts_override = 0;
  cfg.magic_drain = true;
  EXPECT_GT(RunMpps(std::move(cfg)), 3.0);
}

TEST(StageModes, FakeDataDrivesOutputAlone) {
  RouterConfig cfg = Infinite();
  cfg.input_contexts_override = 0;
  cfg.output_fake_data = true;
  Router router(std::move(cfg));
  AddRoutes(router);
  router.Start();
  router.RunForMs(2.0);
  router.StartMeasurement();
  router.RunForMs(6.0);
  EXPECT_GT(router.ForwardingRateMpps(), 3.0);
  EXPECT_EQ(router.stats().input.mps, 0u) << "no input stage must run";
  EXPECT_GT(router.stats().output.mps, 10'000u);
}

TEST(StageModes, StageCountsScaleWithContexts) {
  // More input contexts -> more throughput, monotonically (up to the knee).
  double last = 0;
  for (int ctx : {2, 4, 8, 16}) {
    RouterConfig cfg = Infinite();
    cfg.input_contexts_override = ctx;
    cfg.output_contexts_override = 0;
    cfg.magic_drain = true;
    const double rate = RunMpps(std::move(cfg), 1.0, 4.0);
    EXPECT_GT(rate, last) << ctx << " contexts";
    last = rate;
  }
}

// --- ablation paths ---

TEST(Ablations, DramDirectIsSlowerAndDramBound) {
  RouterConfig direct = Infinite();
  direct.dram_direct_path = true;
  Router router(std::move(direct));
  AddRoutes(router);
  router.Start();
  router.RunForMs(2.0);
  router.StartMeasurement();
  const SimTime t0 = router.engine().now();
  router.RunForMs(6.0);
  const double rate = router.ForwardingRateMpps();
  EXPECT_LT(rate, 3.0);
  EXPECT_GT(rate, 2.0);
  EXPECT_GT(router.chip().memory().dram().Utilization(t0), 0.95)
      << "§3.7: the direct design saturates DRAM";
}

TEST(Ablations, NaiveTokenOrderIsMuchSlower) {
  RouterConfig naive = Infinite();
  naive.token_ring_interleaved = false;
  naive.output_contexts_override = 0;
  naive.magic_drain = true;
  const double slow = RunMpps(std::move(naive), 1.0, 4.0);
  RouterConfig good = Infinite();
  good.output_contexts_override = 0;
  good.magic_drain = true;
  const double fast = RunMpps(std::move(good), 1.0, 4.0);
  EXPECT_GT(fast, slow * 1.5) << "§3.2.2: interleaving the rotation matters";
}

// --- buffer pool flavors ---

TEST(BufferPools, StackPoolEliminatesLapLoss) {
  for (bool stack : {false, true}) {
    RouterConfig cfg = Infinite();
    cfg.hw.num_buffers = 64;  // scarce
    cfg.use_stack_buffer_pool = stack;
    Router router(std::move(cfg));
    AddRoutes(router);
    router.Start();
    router.RunForMs(8.0);
    if (stack) {
      EXPECT_EQ(router.stats().lost_overwritten, 0u);
    } else {
      EXPECT_GT(router.stats().lost_overwritten, 0u);
    }
  }
}

TEST(BufferPools, StackPoolDeliversIntactPackets) {
  RouterConfig cfg;  // real ports
  cfg.use_stack_buffer_pool = true;
  Router router(std::move(cfg));
  AddRoutes(router);
  router.WarmRouteCache(64);
  std::optional<Packet> got;
  router.port(2).SetSink([&](Packet&& p) { got = std::move(p); });
  router.Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(2, 3);
  router.port(0).InjectFromWire(BuildPacket(spec));
  router.RunForMs(2.0);
  ASSERT_TRUE(got);
  EXPECT_TRUE(Ipv4Header::Validate(got->l3()));
}

TEST(BufferPools, StackPoolRecyclesUnderSustainedLoad) {
  // If any drop/consume path leaked buffers, a long run at full rate with a
  // small pool would exhaust it. VRP-dropping half the traffic stresses the
  // release-on-drop path.
  RouterConfig cfg = Infinite();
  cfg.use_stack_buffer_pool = true;
  cfg.hw.num_buffers = 128;
  Router router(std::move(cfg));
  AddRoutes(router);
  VrpProgram limiter = BuildRateLimiter();  // zero tokens: drops everything
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &limiter;
  ASSERT_TRUE(router.Install(req).ok);
  router.Start();
  router.RunForMs(10.0);
  EXPECT_GT(router.stats().dropped_by_vrp, 10'000u);
  EXPECT_EQ(router.stats().dropped_no_buffer, 0u) << "drop path leaked pool buffers";
}

TEST(BufferPools, StackPoolDropsWholePacketsWhenExhausted) {
  // Six ports of full-size frames converge on one output: the 8-buffer pool
  // runs dry, and a packet that gets no buffer at its first MP must lose
  // its continuation MPs with it rather than write them into a buffer that
  // still belongs to an earlier packet.
  RouterConfig cfg;  // real ports
  cfg.use_stack_buffer_pool = true;
  cfg.hw.num_buffers = 8;
  Router router(std::move(cfg));
  AddRoutes(router);
  uint64_t delivered = 0;
  uint64_t broken = 0;
  router.port(7).SetSink([&](Packet&& p) {
    ++delivered;
    broken += p.size() == 1518 && Ipv4Header::Validate(p.l3()) ? 0 : 1;
  });
  router.Start();
  for (int port = 0; port < 6; ++port) {
    for (uint16_t i = 0; i < 400; ++i) {
      PacketSpec spec;
      spec.src_ip = SrcIpForPort(static_cast<uint8_t>(port), 1);
      spec.dst_ip = DstIpForPort(7, 1);
      spec.src_port = i;
      spec.frame_bytes = 1518;
      router.port(port).InjectFromWire(BuildPacket(spec));
    }
  }
  router.RunForMs(60.0);
  EXPECT_GT(router.stats().dropped_no_buffer, 0u) << "the pool must run dry";
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(broken, 0u) << "of " << delivered << " delivered frames";
  const InvariantReport report = RouterInvariants::CheckAll(router);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.conservation_checked);
}

// --- general (ALL-keyed) ME forwarders ---

// Installs `code` as an ALL-keyed MicroEngine forwarder, sends `n` packets
// from port 0 to port 2 and runs until they are through.
void RunGeneralForwarder(Router& router, std::vector<VrpInstr> code, int n) {
  VrpProgram program;
  program.name = "general";
  program.code = std::move(code);
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &program;
  ASSERT_TRUE(router.Install(req).ok);
  AddRoutes(router);
  router.Start();
  for (int i = 0; i < n; ++i) {
    PacketSpec spec;
    spec.dst_ip = DstIpForPort(2, 3);
    router.port(0).InjectFromWire(BuildPacket(spec));
  }
  router.RunForMs(2.0);
}

TEST(GeneralForwarders, ExceptDivertsToStrongArm) {
  Router router{RouterConfig{}};
  RunGeneralForwarder(router, {{VrpOp::kExcept, 0, 0, 0}}, 10);
  EXPECT_EQ(router.stats().exceptional, 10u) << "a general program's except must divert";
  EXPECT_EQ(router.stats().sa_local_processed, 10u);
}

TEST(GeneralForwarders, SetQueuePicksTheQueue) {
  RouterConfig cfg;
  cfg.queues_per_port = 2;
  Router router(std::move(cfg));
  RunGeneralForwarder(router, {{VrpOp::kSetQueue, 0, 0, 1}, {VrpOp::kSend, 0, 0, 0}}, 10);
  std::set<PacketQueue*> queues[2];
  for (int ctx = 0; ctx < router.config().input_contexts(); ++ctx) {
    for (uint32_t prio = 0; prio < 2; ++prio) {
      queues[prio].insert(&router.queues().QueueFor(ctx, 2, prio));
    }
  }
  uint64_t pushes[2] = {0, 0};
  for (uint32_t prio = 0; prio < 2; ++prio) {
    for (PacketQueue* q : queues[prio]) {
      pushes[prio] += q->pushes();
    }
  }
  EXPECT_EQ(pushes[1], 10u) << "a general program's setq must pick the queue";
  EXPECT_EQ(pushes[0], 0u);
  EXPECT_EQ(router.stats().forwarded, 10u);
}

// --- StrongARM flows and interrupt mode ---

TEST(StrongArmFlows, PerFlowSaForwarderRuns) {
  RouterConfig cfg;
  cfg.classifier = ClassifierMode::kFlowTable;
  Router router(std::move(cfg));
  AddRoutes(router);
  router.WarmRouteCache(64);
  uint64_t delivered = 0;
  router.port(3).SetSink([&](Packet&&) { ++delivered; });

  auto null_fw = std::make_unique<NullForwarder>(100);
  NullForwarder* raw = null_fw.get();
  const int idx = router.sa_forwarders().Register(std::move(null_fw));

  PacketSpec spec;
  spec.dst_ip = DstIpForPort(3, 1);
  spec.protocol = kIpProtoTcp;
  spec.src_port = 9000;
  spec.dst_port = 80;
  InstallRequest req;
  req.key = FlowKey::Tuple(spec.src_ip, spec.dst_ip, 9000, 80);
  req.where = Where::kStrongArm;
  req.native_index = idx;
  req.expected_pps = 10'000;
  ASSERT_TRUE(router.Install(req).ok);
  router.Start();

  for (int i = 0; i < 7; ++i) {
    router.port(0).InjectFromWire(BuildPacket(spec));
  }
  router.RunForMs(3.0);
  EXPECT_EQ(raw->processed(), 7u);
  EXPECT_EQ(delivered, 7u);
  EXPECT_EQ(router.stats().sa_local_processed, 7u);
}

TEST(StrongArmFlows, InterruptModeIsSlowerThanPolling) {
  auto measure = [](bool interrupts) {
    RouterConfig cfg = Infinite();
    cfg.enable_strongarm = true;
    cfg.sa_use_interrupts = interrupts;
    cfg.synthetic_exceptional_fraction = 1.0;
    cfg.output_contexts_override = 0;
    cfg.magic_drain = true;
    Router router(std::move(cfg));
    AddRoutes(router);
    router.Start();
    router.RunForMs(2.0);
    router.StartMeasurement();
    const uint64_t before = router.stats().sa_local_processed;
    router.RunForMs(8.0);
    return static_cast<double>(router.stats().sa_local_processed - before);
  };
  const double polling = measure(false);
  const double interrupts = measure(true);
  EXPECT_LT(interrupts, polling * 0.6) << "§3.6: interrupts were significantly slower";
}

// --- budget scaling (Figure 9 relation) ---

class BudgetScaling : public ::testing::TestWithParam<double> {};

TEST_P(BudgetScaling, MonotoneAndConsistent) {
  const double mpps = GetParam();
  const VrpBudget b = VrpBudget::ForForwardingRate(mpps);
  const VrpBudget slower = VrpBudget::ForForwardingRate(mpps / 2);
  EXPECT_GE(slower.cycles, b.cycles) << "halving the rate can only grow the budget";
  EXPECT_GE(slower.sram_transfers, b.sram_transfers);
}

INSTANTIATE_TEST_SUITE_P(Rates, BudgetScaling, ::testing::Values(0.5, 1.0, 1.128, 2.0, 2.8),
                         [](const auto& info) {
                           return "mpps_x100_" +
                                  std::to_string(static_cast<int>(info.param * 100));
                         });

// --- measurement plumbing ---

TEST(Measurement, StartMeasurementResetsWindow) {
  RouterConfig cfg = Infinite();
  Router router(std::move(cfg));
  AddRoutes(router);
  router.Start();
  router.RunForMs(3.0);
  const uint64_t warm = router.stats().input.mps;
  EXPECT_GT(warm, 0u);
  router.StartMeasurement();
  EXPECT_EQ(router.stats().input.mps, 0u);
  EXPECT_EQ(router.stats().latency_ns.count(), 0u);
  router.RunForMs(2.0);
  EXPECT_GT(router.stats().input.mps, 0u);
}

TEST(Measurement, TokenRingIdleAccounted) {
  RouterConfig cfg = Infinite();
  Router router(std::move(cfg));
  AddRoutes(router);
  router.Start();
  router.RunForMs(3.0);
  // At saturation the input token still idles a little between members.
  EXPECT_GT(router.input_stage().token_ring().idle_ps(), 0);
  EXPECT_EQ(router.input_stage().token_ring().size(), 16);
  EXPECT_EQ(router.output_stage().token_ring().size(), 8);
}

TEST(Measurement, MemoryChannelsBusyUnderLoad) {
  RouterConfig cfg = Infinite();
  Router router(std::move(cfg));
  AddRoutes(router);
  router.Start();
  router.RunForMs(2.0);
  router.StartMeasurement();
  const SimTime t0 = router.engine().now();
  router.RunForMs(4.0);
  // 3.4 Mpps x 128 B through DRAM ~ 3.5 Gbps of its 6.4 Gbps.
  EXPECT_GT(router.chip().memory().dram().Utilization(t0), 0.4);
  EXPECT_LT(router.chip().memory().dram().Utilization(t0), 0.8);
  EXPECT_GT(router.chip().memory().sram().Utilization(t0), 0.02);
}

// --- install API edges ---

TEST(InstallApi, IstoreExhaustionRejectsCleanly) {
  Router router((RouterConfig()));
  AddRoutes(router);
  // Fill the ISTORE with per-flow forwarders (cheap in budget terms since
  // per-flow costs max, not sum).
  VrpProgram big = BuildSyntheticBlocks(18);  // ~199 slots+1 each
  int installed = 0;
  for (int i = 0; i < 10; ++i) {
    InstallRequest req;
    req.key = FlowKey::Tuple(1000 + static_cast<uint32_t>(i), 2, 3, 4);
    req.where = Where::kMicroEngine;
    req.program = &big;
    auto outcome = router.Install(req);
    if (!outcome.ok) {
      EXPECT_NE(outcome.error.find("ISTORE"), std::string::npos);
      break;
    }
    ++installed;
  }
  EXPECT_GE(installed, 3);
  EXPECT_LE(installed, 4);  // 650 / 200
}

TEST(InstallApi, GetDataOnUnknownFidIsEmpty) {
  Router router((RouterConfig()));
  EXPECT_TRUE(router.GetData(999).empty());
  EXPECT_FALSE(router.SetData(999, std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_FALSE(router.Remove(999));
}

TEST(InstallApi, SetDataRejectsOversizedWrites) {
  Router router((RouterConfig()));
  VrpProgram monitor = BuildSynMonitor();  // 4 bytes of state
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &monitor;
  auto outcome = router.Install(req);
  ASSERT_TRUE(outcome.ok);
  std::vector<uint8_t> too_big(8, 0);
  EXPECT_FALSE(router.SetData(outcome.fid, too_big));
  std::vector<uint8_t> fits(4, 0);
  EXPECT_TRUE(router.SetData(outcome.fid, fits));
}

}  // namespace
}  // namespace npr
