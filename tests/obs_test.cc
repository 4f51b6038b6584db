// Observability layer: per-packet span tracing, the cycle-accounting
// profiler, and the fault-triggered flight recorder.
//
// Four end-to-end properties (they need NPR_OBS_ENABLED and skip
// otherwise) plus component unit tests that run in any build:
//   1. golden trace — the full span stream of the Table 1 line-rate config
//      at a fixed seed is bit-identical across runs and matches the golden
//      committed under tests/data/ (regenerate with NPR_REGEN_GOLDEN=1);
//   2. reconciliation — for randomized traffic/fault seeds, folding the
//      span stream reproduces RouterStats exactly (every sink-table row,
//      the governor's under OverloadChaos included), the in-flight tracker
//      balances against the conservation invariant, and the profiler's
//      cycle totals equal the MicroEngines' own accounting;
//   3. flight recorder — an injected vrp_trap dumps the faulted packet's
//      chain up to the failure point; a lost token dumps too, and the
//      health monitor's recovery span lands at the recorded MTTR;
//   4. observation — attaching an Observer changes no event and no counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/overload.h"
#include "src/core/router.h"
#include "src/core/router_core.h"
#include "src/fault/fault_injector.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/vrp_programs.h"
#include "src/health/health_monitor.h"
#include "src/net/traffic_gen.h"
#include "src/obs/observer.h"

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
                  double traffic_ms, int ports = 4, uint64_t rate_pps = 120'000,
                  uint64_t seed_base = 500) {
  for (int p = 0; p < ports; ++p) {
    TrafficSpec spec;
    spec.rate_pps = rate_pps;
    spec.dst_spread = 16;
    gens->push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                 seed_base + static_cast<uint64_t>(p)));
    gens->back()->Start(static_cast<SimTime>(traffic_ms * kPsPerMs));
  }
}

std::string RenderRecord(const SpanRecord& r) {
  char line[96];
  std::snprintf(line, sizeof(line), "%llu %s u%02x a%u p%u",
                static_cast<unsigned long long>(r.t_ps),
                SpanPointName(static_cast<SpanPoint>(r.point)), r.unit, r.arg, r.packet_id);
  return std::string(line);
}

uint64_t Fnv1a(const std::vector<SpanRecord>& records) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const SpanRecord& r : records) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&r);
    for (size_t i = 0; i < sizeof(SpanRecord); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Every span point of the sink table counts exactly the sum of the
// RouterStats counters mapped to it (sa.shed_gov is gov_shed_pe +
// gov_shed_sa). Retire keeps the two in step by construction; this catches
// a counter bumped, or a span stamped, outside it (the MacPort governor
// drops are).
void ExpectSinkSpansMatchCounters(const Observer& obs, const RouterStats& stats) {
  uint64_t expected[kSpanPointCount] = {};
  for (const SinkRow& row : kSinks) {
    expected[static_cast<int>(row.point)] += stats.*row.counter;
  }
  for (const SinkRow& row : kSinks) {
    EXPECT_EQ(obs.point_count(row.point), expected[static_cast<int>(row.point)])
        << SpanPointName(row.point);
  }
}

// --- golden per-packet trace (Table 1 line-rate config, fixed seed) ------

constexpr size_t kGoldenHeadLines = 256;

// One deterministic 8x100 Mbps line-rate run with full capture.
std::vector<SpanRecord> CaptureLineRateTrace() {
  RouterConfig cfg;  // real ports, Table 1 in-text configuration
  cfg.enable_pentium = false;
  Router router(std::move(cfg));
  ObserverConfig ocfg;
  ocfg.capture_reserve = 1u << 19;
  Observer obs(router.engine(), ocfg);
  router.SetObserver(&obs);
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(64);
  router.Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(p + 1)));
    gens.back()->Start(2 * kPsPerMs);
  }
  router.RunForMs(3.0);
  EXPECT_FALSE(obs.capture_truncated()) << "raise capture_reserve";
  EXPECT_EQ(obs.tracker_overflows(), 0u);
  return obs.capture();
}

TEST(GoldenTraceTest, LineRateSpanStreamIsDeterministicAndMatchesGolden) {
#if !defined(NPR_OBS_ENABLED)
  GTEST_SKIP() << "built with NPR_OBS=OFF";
#else
  const std::vector<SpanRecord> first = CaptureLineRateTrace();
  const std::vector<SpanRecord> second = CaptureLineRateTrace();
  ASSERT_GT(first.size(), 10'000u) << "line-rate run produced almost no spans";
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    const std::string a = RenderRecord(first[i]);
    const std::string b = RenderRecord(second[i]);
    ASSERT_EQ(a, b) << "trace diverges at record " << i;
  }

  const std::string path = std::string(TESTS_DATA_DIR) + "/obs_golden_trace.txt";
  char header[128];
  std::snprintf(header, sizeof(header), "records %llu\nfnv1a %016llx\n",
                static_cast<unsigned long long>(first.size()),
                static_cast<unsigned long long>(Fnv1a(first)));
  std::string expected(header);
  for (size_t i = 0; i < std::min(first.size(), kGoldenHeadLines); ++i) {
    expected += RenderRecord(first[i]);
    expected += '\n';
  }

  if (std::getenv("NPR_REGEN_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fwrite(expected.data(), 1, expected.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << path;
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "missing golden " << path
                        << " (regenerate with NPR_REGEN_GOLDEN=1)";
  std::string golden;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    golden.append(buf, n);
  }
  std::fclose(f);
  EXPECT_EQ(golden, expected)
      << "span stream diverged from the committed golden; if the router's "
         "timing changed intentionally, regenerate with NPR_REGEN_GOLDEN=1";
#endif
}

// --- reconciliation: span fold == RouterStats, profiler == engines -------

TEST(ReconciliationTest, SpanFoldMatchesRouterStatsAcrossSeedsAndFaults) {
#if !defined(NPR_OBS_ENABLED)
  GTEST_SKIP() << "built with NPR_OBS=OFF";
#else
  struct Case {
    uint64_t seed;
    bool chaos;
  };
  const Case cases[] = {{1, false}, {2, true}, {3, true}, {4, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed) + (c.chaos ? " chaos" : " fault-free"));
    RouterConfig cfg;
    if (c.chaos) {
      // Chaos (frame faults, bit flips, crashes, descriptor corruption)
      // but no degraded-mode shedding: a shed pop does not re-validate the
      // buffer generation, so a lapped buffer would erase the successor's
      // track and the accounting below is only exact without shedding.
      cfg.fault_plan = FaultPlan::Chaos(c.seed);
    }
    auto router = MakeRouter(std::move(cfg));
    ObserverConfig ocfg;
    ocfg.tracker_slots = 1u << 16;
    Observer obs(router->engine(), ocfg);
    router->SetObserver(&obs);
    router->Start();
    std::vector<std::unique_ptr<TrafficGen>> gens;
    DriveTraffic(*router, &gens, 6.0, /*ports=*/4, /*rate_pps=*/120'000,
                 /*seed_base=*/700 * c.seed);
    router->RunForMs(10.0);  // 4 ms drain after the last frame

    const RouterStats& stats = router->stats();
    ASSERT_GT(stats.forwarded, 1000u);
    ASSERT_EQ(obs.tracker_overflows(), 0u);

    // Every RouterStats disposition counter has exactly one span point
    // recorded adjacent to it.
    EXPECT_EQ(obs.point_count(SpanPoint::kPktIngress), stats.input.packets);
    EXPECT_EQ(obs.point_count(SpanPoint::kPktTxComplete), stats.forwarded);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropInvalid), stats.dropped_invalid);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropVrp), stats.dropped_by_vrp);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropQueueFull), stats.dropped_queue_full);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropNoBuffer), stats.dropped_no_buffer);
    EXPECT_EQ(obs.point_count(SpanPoint::kOutLostLap), stats.lost_overwritten);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaLapped), stats.sa_lapped);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaAbsorbed), stats.sa_absorbed);
    EXPECT_EQ(obs.point_count(SpanPoint::kPeAbsorbed), stats.pe_absorbed);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaShedPe), stats.pkts_shed_degraded);
    EXPECT_EQ(obs.point_count(SpanPoint::kIcmpOriginated), stats.icmp_originated);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaDequeued), stats.sa_local_processed)
        << "every valid StrongARM dequeue is one locally processed packet";
    EXPECT_EQ(obs.point_count(SpanPoint::kPeServiced), stats.pentium_processed);
    ExpectSinkSpansMatchCounters(obs, stats);

    uint64_t corrupt_drops = 0;
    for (const auto& q : router->queues().all_queues()) {
      corrupt_drops += q->corrupt_drops();
    }
    corrupt_drops += router->sa_local_queue().corrupt_drops();
    corrupt_drops += router->sa_pentium_queue().corrupt_drops();
    EXPECT_EQ(obs.point_count(SpanPoint::kQueueCorrupt), corrupt_drops);

    // The span fold reproduces the conservation balance the invariant
    // checker computes from the counters.
    const InvariantReport report = RouterInvariants::CheckAll(*router);
    EXPECT_TRUE(report.ok()) << report.ToString();
    ASSERT_TRUE(report.conservation_checked);
    EXPECT_EQ(obs.point_count(SpanPoint::kPktIngress) +
                  obs.point_count(SpanPoint::kIcmpOriginated),
              report.sources);

    // Tracker balance: a chain stays open iff the packet is visibly in
    // flight or left through a path that cannot name it (lapped buffers,
    // corrupted descriptors).
    EXPECT_EQ(obs.tracker_live(),
              report.in_flight + stats.lost_overwritten + stats.sa_lapped + corrupt_drops);

    // Forwarded packets split across the per-path latency histograms.
    uint64_t path_total = 0;
    for (int p = 0; p < kPathKindCount; ++p) {
      path_total += obs.path_latency(static_cast<PathKind>(p)).count();
    }
    EXPECT_EQ(path_total, stats.forwarded);

    // Per-stage cycle sums equal the profiler totals: the profiler's view
    // of each context and engine matches the hardware model's own books.
    for (int me = 0; me < router->chip().num_mes(); ++me) {
      MicroEngine& engine = router->chip().me(me);
      EXPECT_EQ(obs.profiler().EngineComputeCycles(static_cast<uint8_t>(me)),
                engine.busy_cycles())
          << "engine " << me;
      for (int ctx = 0; ctx < engine.num_contexts(); ++ctx) {
        EXPECT_EQ(obs.profiler()
                      .slot(static_cast<uint8_t>(me), static_cast<uint8_t>(ctx))
                      .compute_cycles,
                  engine.context(ctx).compute_cycles())
            << "engine " << me << " ctx " << ctx;
      }
    }
  }
#endif
}

// The governor's sinks: a gigabit min-size flood under OverloadChaos walks
// the ladder into MAC-RX drops and bridge shedding of host-bound work, and
// every one of them is stamped once beside its counter.
TEST(ReconciliationTest, SinkSpansMatchCountersUnderOverloadChaos) {
#if !defined(NPR_OBS_ENABLED)
  GTEST_SKIP() << "built with NPR_OBS=OFF";
#else
  RouterConfig cfg;
  cfg.port_rates_bps = std::vector<double>(8, 1e9);
  cfg.fault_plan = FaultPlan::OverloadChaos(0x0c0deULL);
  auto router = MakeRouter(std::move(cfg));
  ObserverConfig ocfg;
  ocfg.tracker_slots = 1u << 16;
  Observer obs(router->engine(), ocfg);
  router->SetObserver(&obs);
  router->Start();
  OverloadGovernor gov(*router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  // Host-bound work for the bridge to shed: IP-option packets on port 0.
  TrafficSpec options;
  options.rate_pps = 400'000;
  options.exceptional_fraction = 1.0;
  options.single_dst_port = 7;
  options.pattern = TrafficSpec::DstPattern::kSinglePort;
  gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(0), options, 11));
  gens.back()->Start(4 * kPsPerMs);
  // Elephants on port 1 for the policer; a many-source flood on 2-6.
  for (int p = 1; p <= 6; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 1.6e6;
    spec.adversarial = p == 1 ? TrafficSpec::Adversarial::kElephantFlows
                              : TrafficSpec::Adversarial::kMinSizeFlood;
    spec.flood_factor = 1.0;
    spec.single_dst_port = 7;
    spec.flood_sources = 64;
    gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(p), spec,
                                                42 + static_cast<uint64_t>(p)));
    gens.back()->Start(4 * kPsPerMs);
  }
  router->RunForMs(6.0);

  // Spelled out, not read from the table, so a row mapped to the wrong
  // point fails here.
  const RouterStats& stats = router->stats();
  EXPECT_EQ(obs.tracker_overflows(), 0u);
  EXPECT_GT(obs.point_count(SpanPoint::kDropGovRed), 0u);
  EXPECT_GT(obs.point_count(SpanPoint::kDropGovPolice), 0u);
  EXPECT_GT(obs.point_count(SpanPoint::kDropGovQuench), 0u);
  EXPECT_GT(obs.point_count(SpanPoint::kSaShedGov), 0u);
  EXPECT_EQ(obs.point_count(SpanPoint::kDropGovRed), stats.gov_red_dropped);
  EXPECT_EQ(obs.point_count(SpanPoint::kDropGovPolice), stats.gov_policed);
  EXPECT_EQ(obs.point_count(SpanPoint::kDropGovQuench), stats.gov_quenched);
  EXPECT_EQ(obs.point_count(SpanPoint::kSaShedGov), stats.gov_shed_pe + stats.gov_shed_sa);
  EXPECT_EQ(obs.point_count(SpanPoint::kSaShedPe), stats.pkts_shed_degraded);
  ExpectSinkSpansMatchCounters(obs, stats);
  const InvariantReport report = RouterInvariants::CheckAll(*router);
  EXPECT_TRUE(report.ok()) << report.ToString();
#endif
}

// --- observation does not change what it observes -------------------------

// What one synthetic run did: its event count, then every per-stage counter,
// every sink-table counter and the remaining dispositions.
struct RunSummary {
  uint64_t events_run = 0;
  std::vector<uint64_t> counters;
};

RunSummary RunSynthetic(RouterConfig cfg, bool observed) {
  auto router = MakeRouter(std::move(cfg));
  Observer obs(router->engine());
  if (observed) {
    router->SetObserver(&obs);
  }
  router->Start();
  router->RunForMs(2.0);
  const RouterStats& s = router->stats();
  RunSummary r;
  r.events_run = router->engine().events_run();
  for (const StageStats* st : {&s.input, &s.output}) {
    r.counters.insert(r.counters.end(),
                      {st->mps, st->packets, st->reg_cycles, st->sram_reads, st->sram_writes,
                       st->dram_reads, st->dram_writes, st->scratch_reads, st->scratch_writes,
                       st->mutex_ops});
  }
  for (const SinkRow& row : kSinks) {
    r.counters.push_back(s.*row.counter);
  }
  r.counters.insert(r.counters.end(), {s.forwarded, s.exceptional, s.to_pentium, s.vrp_traps,
                                       s.output_idle_iters, s.output_lost_iters});
  return r;
}

// Each stage runs one event sequence in every configuration, so attaching
// an Observer changes no event and no counter. Covers the isolated Table 1
// input row and the Figure 10 max-contention row, the configurations where
// the stages once merged pipeline slices when nothing was watching.
TEST(ObservationTest, AttachingAnObserverLeavesTheEventSequenceUnchanged) {
#if !defined(NPR_OBS_ENABLED)
  GTEST_SKIP() << "built with NPR_OBS=OFF";
#else
  RouterConfig input_only;  // Table 1 I.2: input stage against a zero-cost drain
  input_only.port_mode = PortMode::kInfiniteFifo;
  input_only.enable_pentium = false;
  input_only.enable_strongarm = false;
  input_only.output_contexts_override = 0;
  input_only.magic_drain = true;
  RouterConfig contended = input_only;  // Figure 10, 64 blocks, one protected queue
  contended.synthetic_single_dst = true;
  contended.vrp_blocks_reg = 64;
  contended.vrp_blocks_sram = 64;

  const std::pair<const char*, RouterConfig> cases[] = {{"table1 I.2", input_only},
                                                        {"fig10 64 blocks", contended}};
  for (const auto& [name, cfg] : cases) {
    SCOPED_TRACE(name);
    const RunSummary bare = RunSynthetic(cfg, /*observed=*/false);
    const RunSummary observed = RunSynthetic(cfg, /*observed=*/true);
    ASSERT_GT(bare.counters[1], 1000u) << "input packets";
    EXPECT_EQ(bare.events_run, observed.events_run);
    EXPECT_EQ(bare.counters, observed.counters);
  }
#endif
}

// --- flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, VrpTrapDumpContainsFaultedPacketChain) {
#if !defined(NPR_OBS_ENABLED)
  GTEST_SKIP() << "built with NPR_OBS=OFF";
#else
  FaultPlan plan;
  plan.vrp_trap_p = 1.0;  // the first VRP run traps
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  Observer obs(router->engine());
  router->SetObserver(&obs);
  router->Start();

  VrpProgram monitor = BuildSynMonitor();
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &monitor;
  const InstallOutcome outcome = router->Install(req);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  std::vector<std::unique_ptr<TrafficGen>> gens;
  DriveTraffic(*router, &gens, 4.0, /*ports=*/1);
  router->RunForMs(6.0);

  ASSERT_GT(router->stats().vrp_traps, 0u);
  const FlightRecorder& rec = obs.recorder();
  ASSERT_TRUE(rec.has_dump());
  const FlightRecorder::Dump& dump = rec.dump();
  EXPECT_EQ(dump.reason, "vrp_trap");
  ASSERT_NE(dump.packet_id, 0u);
  EXPECT_EQ(rec.dump_triggers(), router->stats().vrp_traps)
      << "every trap triggers; only the first dump is kept";

  // The dump must hold the faulted packet's chain up to the failure point:
  // wire arrival, ingress, then the fault — and nothing after it, because
  // the snapshot was taken at the instant of the trap.
  std::vector<SpanPoint> chain;
  for (const SpanRecord& r : dump.records) {
    if (r.packet_id == dump.packet_id) {
      chain.push_back(static_cast<SpanPoint>(r.point));
    }
  }
  ASSERT_GE(chain.size(), 3u) << FlightRecorder::Format(dump);
  EXPECT_EQ(chain.front(), SpanPoint::kMacRxFrame);
  EXPECT_EQ(chain[1], SpanPoint::kPktIngress);
  EXPECT_EQ(chain.back(), SpanPoint::kFault);
  const std::string text = FlightRecorder::Format(dump);
  EXPECT_NE(text.find("vrp_trap"), std::string::npos);
  EXPECT_NE(text.find("fault"), std::string::npos);
#endif
}

TEST(FlightRecorderTest, LostTokenDumpAndRecoverySpanAfterMttr) {
#if !defined(NPR_OBS_ENABLED)
  GTEST_SKIP() << "built with NPR_OBS=OFF";
#else
  FaultPlan plan;
  plan.token_lost_p = 5e-5;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  ObserverConfig ocfg;
  ocfg.capture_reserve = 1u << 20;
  Observer obs(router->engine(), ocfg);
  router->SetObserver(&obs);
  router->Start();
  HealthMonitor health(*router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  DriveTraffic(*router, &gens, 10.0);
  router->RunForMs(13.0);

  ASSERT_GT(router->stats().tokens_regenerated, 0u);
  ASSERT_TRUE(obs.recorder().has_dump());
  EXPECT_EQ(obs.recorder().dump().reason, "token_lost");
  ASSERT_GT(obs.point_count(SpanPoint::kRecovery), 0u);

  // Each token regeneration leaves a recovery span stamped exactly at the
  // event's recovered_at — i.e. MTTR after the fault the dump recorded.
  size_t regens_matched = 0;
  for (const RecoveryEvent& e : health.events()) {
    if (e.kind != RecoveryEvent::Kind::kTokenRegen) {
      continue;
    }
    bool found = false;
    for (const SpanRecord& r : obs.capture()) {
      if (static_cast<SpanPoint>(r.point) == SpanPoint::kRecovery &&
          r.unit == kUnitHealth &&
          r.arg == static_cast<uint16_t>(RecoveryEvent::Kind::kTokenRegen) &&
          r.t_ps == static_cast<uint64_t>(e.recovered_at)) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no recovery span at recovered_at=" << e.recovered_at;
    EXPECT_EQ(e.mttr_ps(), e.recovered_at - e.fault_at);
    EXPECT_GE(e.mttr_ps(), health.config().token_deadline_ps);
    ++regens_matched;
  }
  EXPECT_GT(regens_matched, 0u);
  // The recovery span postdates the fault evidence in the dump.
  for (const SpanRecord& r : obs.capture()) {
    if (static_cast<SpanPoint>(r.point) == SpanPoint::kRecovery) {
      EXPECT_GT(r.t_ps, static_cast<uint64_t>(obs.recorder().dump().t_ps));
      break;
    }
  }
#endif
}

// --- component unit tests (run in any build; Record() is gated only at
// the hook sites, not on the Observer API itself) -------------------------

TEST(SpanTest, NamesAreStableAndTerminalsClassified) {
  for (int p = 0; p < kSpanPointCount; ++p) {
    EXPECT_STRNE(SpanPointName(static_cast<SpanPoint>(p)), "?") << "point " << p;
  }
  EXPECT_STREQ(SpanPointName(SpanPoint::kPktIngress), "in.ingress");
  EXPECT_STREQ(SpanPointName(SpanPoint::kPktTxComplete), "out.tx_complete");
  EXPECT_TRUE(IsTerminal(SpanPoint::kDropVrp));
  EXPECT_TRUE(IsErasingTerminal(SpanPoint::kDropVrp));
  EXPECT_TRUE(IsTerminal(SpanPoint::kOutLostLap));
  EXPECT_FALSE(IsErasingTerminal(SpanPoint::kOutLostLap));
  EXPECT_TRUE(IsTerminal(SpanPoint::kSaLapped));
  EXPECT_FALSE(IsErasingTerminal(SpanPoint::kSaLapped));
  EXPECT_FALSE(IsTerminal(SpanPoint::kQueuePush));
  EXPECT_EQ(ContextUnit(3, 2), 14);

  EXPECT_EQ(SpanRoleOf(SpanPoint::kPktIngress), SpanRole::kSource);
  EXPECT_EQ(SpanRoleOf(SpanPoint::kIcmpOriginated), SpanRole::kSource);
  EXPECT_EQ(SpanRoleOf(SpanPoint::kInEnqueued), SpanRole::kStep);
  EXPECT_EQ(SpanRoleOf(SpanPoint::kOutLostLap), SpanRole::kLapTerminal);
  EXPECT_EQ(SpanRoleOf(SpanPoint::kDropGovQuench), SpanRole::kPreIngressTerminal);
  EXPECT_EQ(SpanRoleOf(SpanPoint::kGovStage), SpanRole::kUntracked);
  EXPECT_TRUE(IsTerminal(SpanPoint::kDropNoBuffer));
  EXPECT_FALSE(IsErasingTerminal(SpanPoint::kDropNoBuffer));
  EXPECT_TRUE(IsErasingTerminal(SpanPoint::kSaShedGov));
  for (int a = 0; a < kSpanPointCount; ++a) {
    for (int b = a + 1; b < kSpanPointCount; ++b) {
      EXPECT_STRNE(kSpanPoints[a].name, kSpanPoints[b].name);
    }
  }
}

TEST(SinkTableTest, EveryRowHasADistinctCounterAndATerminalSpan) {
  for (int a = 0; a < kSinkCount; ++a) {
    const SinkRow& row = kSinks[a];
    SCOPED_TRACE(SpanPointName(row.point));
    EXPECT_TRUE(IsTerminal(row.point));
    // Conservation counts exactly the sinks that happen after ingress.
    EXPECT_EQ(row.conserved, SpanRoleOf(row.point) != SpanRole::kPreIngressTerminal);
    for (int b = a + 1; b < kSinkCount; ++b) {
      EXPECT_NE(row.counter, kSinks[b].counter) << "rows " << a << " and " << b;
    }
  }
  // Retire bumps the row's counter.
  RouterStats stats;
  RouterCore core;
  core.stats = &stats;
  Retire(core, Sink::kGovShedSa, 1, kUnitStrongArm, 0);
  Retire(core, Sink::kGovShedSa, 2, kUnitStrongArm, 0);
  Retire(core, Sink::kVrp, 3, 0, 0);
  EXPECT_EQ(stats.gov_shed_sa, 2u);
  EXPECT_EQ(stats.dropped_by_vrp, 1u);
  EXPECT_EQ(stats.gov_shed_pe, 0u);
}

TEST(FlightRecorderUnitTest, RingWrapsAndFirstDumpWins) {
  FlightRecorder rec(4);  // clamped up to the minimum capacity
  EXPECT_GE(rec.capacity(), 16u);
  const size_t cap = rec.capacity();
  for (uint64_t i = 0; i < cap + 10; ++i) {
    rec.Record(SpanRecord{i, static_cast<uint32_t>(i), 0, 0, 0});
  }
  EXPECT_EQ(rec.size(), cap);
  const std::vector<SpanRecord> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), cap);
  EXPECT_EQ(snap.front().t_ps, 10u);  // oldest surviving record
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].t_ps, snap[i].t_ps);
  }

  rec.TriggerDump("first", 7, 123);
  rec.TriggerDump("second", 8, 456);
  EXPECT_TRUE(rec.has_dump());
  EXPECT_EQ(rec.dump_triggers(), 2u);
  EXPECT_EQ(rec.dump().reason, "first");
  EXPECT_EQ(rec.dump().packet_id, 7u);
  EXPECT_EQ(rec.dump().t_ps, 123);
  EXPECT_EQ(rec.dump().records.size(), cap);
  const std::string text = FlightRecorder::Format(rec.dump());
  EXPECT_NE(text.find("first"), std::string::npos);

  rec.Reset();
  EXPECT_FALSE(rec.has_dump());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dump_triggers(), 0u);
}

TEST(CycleProfilerUnitTest, AttributionAndAggregates) {
  CycleProfiler prof;
  prof.AddCompute(0, 0, 100);
  prof.AddCompute(0, 1, 50);
  prof.AddCompute(2, 3, 25);
  prof.AddWait(0, 0, WaitClass::kDram, 1000);
  prof.AddWait(0, 0, WaitClass::kDram, 500);
  prof.AddWait(0, 1, WaitClass::kToken, 2000);
  prof.AddWait(2, 3, WaitClass::kMutex, 300);

  EXPECT_EQ(prof.slot(0, 0).compute_cycles, 100u);
  EXPECT_EQ(prof.slot(0, 0).compute_bursts, 1u);
  EXPECT_EQ(prof.slot(0, 0).wait_ps[static_cast<int>(WaitClass::kDram)], 1500u);
  EXPECT_EQ(prof.slot(0, 0).waits[static_cast<int>(WaitClass::kDram)], 2u);
  EXPECT_EQ(prof.EngineComputeCycles(0), 150u);
  EXPECT_EQ(prof.EngineWaitPs(0, WaitClass::kToken), 2000u);
  EXPECT_EQ(prof.TotalComputeCycles(), 175u);
  EXPECT_EQ(prof.TotalWaitPs(WaitClass::kMutex), 300u);
  for (int w = 0; w < kWaitClassCount; ++w) {
    EXPECT_STRNE(WaitClassName(static_cast<WaitClass>(w)), "?");
  }
  const std::string report = prof.Report();
  EXPECT_NE(report.find("me0"), std::string::npos);
  EXPECT_NE(report.find("me2"), std::string::npos);
  EXPECT_EQ(report.find("me1"), std::string::npos) << "idle engines are omitted";

  prof.Reset();
  EXPECT_EQ(prof.TotalComputeCycles(), 0u);
  EXPECT_EQ(prof.TotalWaitPs(WaitClass::kDram), 0u);
}

// Drives Observer::Record directly at controlled simulated times. Each
// Run() advances the epoch so a later At() never schedules into the past.
class ObserverHarness {
 public:
  explicit ObserverHarness(ObserverConfig cfg = {}) : obs_(engine_, cfg) {}

  void At(SimTime t, SpanPoint p, uint32_t id, uint8_t unit = 0, uint16_t arg = 0) {
    engine_.Schedule(epoch_ + t, [this, p, id, unit, arg] { obs_.Record(p, id, unit, arg); });
  }
  void Run() {
    engine_.RunFor(1 * kPsPerMs);
    epoch_ += 1 * kPsPerMs;
  }

  EventQueue engine_;
  Observer obs_;
  SimTime epoch_ = 0;
};

TEST(ObserverUnitTest, PathClassificationAndHopHistograms) {
  ObserverHarness h;
  // Path A: ingress -> enqueued -> queue wait -> output -> tx.
  h.At(1000, SpanPoint::kPktIngress, 1);
  h.At(3000, SpanPoint::kInEnqueued, 1);
  h.At(9000, SpanPoint::kOutDequeued, 1);
  h.At(12'000, SpanPoint::kPktTxComplete, 1);
  // Path B: diverted to the StrongARM.
  h.At(2000, SpanPoint::kPktIngress, 2);
  h.At(4000, SpanPoint::kInToSa, 2);
  h.At(20'000, SpanPoint::kSaDequeued, 2);
  h.At(30'000, SpanPoint::kSaForwarded, 2);
  h.At(40'000, SpanPoint::kOutDequeued, 2);
  h.At(52'000, SpanPoint::kPktTxComplete, 2);
  // Path C: to the Pentium and back.
  h.At(5000, SpanPoint::kPktIngress, 3);
  h.At(6000, SpanPoint::kInToPe, 3);
  h.At(7000, SpanPoint::kBridgeToPe, 3);
  h.At(8000, SpanPoint::kPeIntake, 3);
  h.At(9000, SpanPoint::kPeServiced, 3);
  h.At(10'000, SpanPoint::kPeReturned, 3);
  h.At(11'000, SpanPoint::kSaReturnEnqueued, 3);
  h.At(13'000, SpanPoint::kOutDequeued, 3);
  h.At(15'000, SpanPoint::kPktTxComplete, 3);
  h.Run();

  EXPECT_EQ(h.obs_.records(), 19u);
  EXPECT_EQ(h.obs_.tracker_live(), 0u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathA).count(), 1u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathB).count(), 1u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathC).count(), 1u);
  // End-to-end: (12000 - 1000) ps = 11 ns for packet 1.
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathA).max(), 11u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathB).max(), 50u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kInput).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kQueueWait).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kOutput).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kSaService).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kPeService).count(), 0u);
}

TEST(ObserverUnitTest, TerminalsEraseAndLapPointsDoNot) {
  ObserverHarness h;
  h.At(1000, SpanPoint::kPktIngress, 10);
  h.At(2000, SpanPoint::kDropInvalid, 10);  // erases
  h.At(3000, SpanPoint::kPktIngress, 11);
  h.At(4000, SpanPoint::kOutLostLap, 12);   // successor id: must not erase 11
  h.At(5000, SpanPoint::kIcmpOriginated, 13);  // a source: opens a chain
  h.At(6000, SpanPoint::kQueuePush, 11);    // buffer-index points never track
  h.At(7000, SpanPoint::kFault, 11);        // fault spans never track
  h.Run();

  EXPECT_EQ(h.obs_.tracker_live(), 2u);  // 11 (lapped away) and 13 (in flight)
  EXPECT_EQ(h.obs_.point_count(SpanPoint::kOutLostLap), 1u);
  EXPECT_EQ(h.obs_.point_count(SpanPoint::kQueuePush), 1u);
  // Untracked ids are ignored, id 0 is never tracked.
  h.At(8000, SpanPoint::kPktTxComplete, 99);
  h.At(9000, SpanPoint::kPktIngress, 0);
  h.Run();
  EXPECT_EQ(h.obs_.tracker_live(), 2u);
}

TEST(ObserverUnitTest, TrackerCollisionsBackwardShiftAndOverflow) {
  ObserverConfig cfg;
  cfg.tracker_slots = 64;  // force collisions: ids 6, 39, 49 hash to one home
  ObserverHarness h(cfg);
  h.At(1000, SpanPoint::kPktIngress, 6);
  h.At(1100, SpanPoint::kPktIngress, 39);
  h.At(1200, SpanPoint::kPktIngress, 49);
  h.At(2000, SpanPoint::kDropInvalid, 39);  // erase the middle of the chain
  h.Run();
  EXPECT_EQ(h.obs_.tracker_live(), 2u);
  // Both survivors must still be findable after the backward shift.
  h.At(3000, SpanPoint::kDropInvalid, 49);
  h.At(3100, SpanPoint::kDropInvalid, 6);
  h.Run();
  EXPECT_EQ(h.obs_.tracker_live(), 0u);

  // Fill the table far past capacity: FindOrCreate gives up after its probe
  // bound and counts the overflow instead of clobbering live chains.
  for (uint32_t i = 0; i < 300; ++i) {
    h.At(4000 + i, SpanPoint::kPktIngress, 1000 + i);
  }
  h.Run();
  EXPECT_GT(h.obs_.tracker_overflows(), 0u);
  EXPECT_LE(h.obs_.tracker_live(), 64u);
}

TEST(ObserverUnitTest, CaptureReserveTruncatesInsteadOfGrowing) {
  ObserverConfig cfg;
  cfg.capture_reserve = 4;
  ObserverHarness h(cfg);
  for (uint32_t i = 0; i < 10; ++i) {
    h.At(1000 + i, SpanPoint::kMacRxFrame, i, kUnitMacBase);
  }
  h.Run();
  EXPECT_EQ(h.obs_.capture().size(), 4u);
  EXPECT_TRUE(h.obs_.capture_truncated());
  EXPECT_EQ(h.obs_.records(), 10u);  // counting is not truncated
}

}  // namespace
}  // namespace npr
