#include "src/fault/router_invariants.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "src/cluster/cluster_router.h"
#include "src/core/pentium_host.h"
#include "src/core/router.h"
#include "src/core/strongarm_bridge.h"
#include "src/core/upgrade.h"
#include "src/net/mac_port.h"
#include "src/obs/observer.h"

namespace npr {
namespace {

void Violate(InvariantReport* report, std::string message) {
  report->violations.push_back(std::move(message));
}

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

void CheckQueue(const PacketQueue& q, const char* label, InvariantReport* report) {
  if (q.size() > q.capacity()) {
    Violate(report, Format("%s queue %d: size %u exceeds capacity %u", label, q.id(),
                           q.size(), q.capacity()));
  }
  const uint32_t bad = q.CheckConsistency();
  if (bad != 0) {
    Violate(report, Format("%s queue %d: %u descriptor(s) disagree with the SRAM ring",
                           label, q.id(), bad));
  }
}

// Every packet admitted to the pipeline (plus every ICMP error originated in
// a fresh buffer) must be transmitted, retired through a conserved sink
// (kSinks), lost to a corrupted descriptor, or still visibly in flight
// somewhere. The pre-ingress sinks and the MAC-level CRC drops happen before
// ingress accounting and are deliberately outside the balance.
void CheckConservation(Router& router, InvariantReport* report) {
  const RouterConfig& cfg = router.config();
  const RouterStats& stats = router.stats();
  if (cfg.magic_drain || cfg.output_fake_data || cfg.port_mode == PortMode::kInfiniteFifo) {
    return;  // synthetic/absorbing modes do not conserve packets
  }
  if (stats.window_start != 0) {
    return;  // StartMeasurement() reset the ingress counters mid-run
  }
  report->conservation_checked = true;

  uint64_t corrupt_drops = 0;
  uint64_t queued = 0;
  for (const auto& q : router.queues().all_queues()) {
    corrupt_drops += q->corrupt_drops();
    queued += q->size();
  }
  corrupt_drops += router.sa_local_queue().corrupt_drops();
  corrupt_drops += router.sa_pentium_queue().corrupt_drops();
  queued += router.sa_local_queue().size();
  queued += router.sa_pentium_queue().size();

  report->sources = stats.input.packets + stats.icmp_originated;
  report->sinks = stats.forwarded + corrupt_drops;
  for (const SinkRow& row : kSinks) {
    report->sinks += row.conserved ? stats.*row.counter : 0;
  }
  report->in_flight = queued + router.bridge().staging().size() +
                      router.pentium_host().scheduler().backlog() +
                      static_cast<uint64_t>(router.output_stage().active_streams()) +
                      static_cast<uint64_t>(router.input_stage().partial_assemblies());

  if (report->sources != report->sinks + report->in_flight) {
    Violate(report,
            Format("packet conservation: sources %" PRIu64 " != sinks %" PRIu64
                   " + in-flight %" PRIu64 " (leak of %" PRId64 ")",
                   report->sources, report->sinks, report->in_flight,
                   static_cast<int64_t>(report->sources) -
                       static_cast<int64_t>(report->sinks + report->in_flight)));
  }
}

// MAC RX accounting: every frame a port was offered must be attributed to a
// named outcome — CRC drop, tail drop, one of the governor's ladder stages,
// or acceptance. A mismatch means somebody dropped (or invented) a frame
// without a counter: a silent drop, which the overload work explicitly
// forbids. The per-port governor counters must also reconcile with the
// router-wide gov_* stats the governor itself increments (the verdict
// contract is 1:1: governor accounts, port attributes).
void CheckMacAccounting(Router& router, InvariantReport* report) {
  uint64_t red_sum = 0;
  uint64_t police_sum = 0;
  uint64_t quench_sum = 0;
  for (int p = 0; p < router.num_ports(); ++p) {
    const MacPort& port = router.port(p);
    const uint64_t attributed = port.rx_crc_dropped() + port.rx_dropped() +
                                port.gov_red_dropped() + port.gov_policed() +
                                port.gov_quenched() + port.rx_frames();
    if (port.rx_offered() != attributed) {
      Violate(report,
              Format("port %d MAC accounting: offered %" PRIu64 " != attributed %" PRIu64
                     " (silent drop of %" PRId64 ")",
                     p, port.rx_offered(), attributed,
                     static_cast<int64_t>(port.rx_offered()) -
                         static_cast<int64_t>(attributed)));
    }
    red_sum += port.gov_red_dropped();
    police_sum += port.gov_policed();
    quench_sum += port.gov_quenched();
  }
  const RouterStats& stats = router.stats();
  if (red_sum != stats.gov_red_dropped || police_sum != stats.gov_policed ||
      quench_sum != stats.gov_quenched) {
    Violate(report,
            Format("governor attribution: per-port sums red %" PRIu64 "/police %" PRIu64
                   "/quench %" PRIu64 " != router stats %" PRIu64 "/%" PRIu64 "/%" PRIu64,
                   red_sum, police_sum, quench_sum, stats.gov_red_dropped,
                   stats.gov_policed, stats.gov_quenched));
  }
}

void CheckTokenLiveness(Router& router, InvariantReport* report) {
  if (!router.started()) {
    return;
  }
  const SimTime now = router.engine().now();
  if (now <= RouterInvariants::kTokenLivenessWindowPs) {
    return;  // not enough history to judge
  }
  struct Stage {
    const char* name;
    TokenRing* ring;
  };
  const Stage stages[] = {
      {"input", &router.input_stage().token_ring()},
      {"output", &router.output_stage().token_ring()},
  };
  for (const Stage& s : stages) {
    if (s.ring->size() == 0 || s.ring->members_up() == 0) {
      continue;  // stage disabled, or every context crashed (restart pending)
    }
    if (s.ring->token_lost()) {
      // The token is not merely slow — it is gone, and no grant can ever
      // happen until something regenerates it. That is only a violation
      // once the recovery window has elapsed with nobody acting; inside
      // the window a health monitor is expected to be mid-recovery.
      const SimTime lost_for = now - s.ring->token_lost_since_ps();
      if (lost_for > RouterInvariants::kTokenLivenessWindowPs) {
        Violate(report,
                Format("%s token ring: token lost %.3f ms ago and not regenerated",
                       s.name, static_cast<double>(lost_for) / kPsPerMs));
      }
      continue;  // do not double-report via the last-grant age below
    }
    const SimTime idle = now - s.ring->last_grant_ps();
    if (idle > RouterInvariants::kTokenLivenessWindowPs) {
      Violate(report, Format("%s token ring: no grant for %.3f ms (%d/%d members up)",
                             s.name, static_cast<double>(idle) / kPsPerMs,
                             s.ring->members_up(), s.ring->size()));
    }
  }
}

void CheckQueues(Router& router, InvariantReport* report) {
  for (const auto& q : router.queues().all_queues()) {
    CheckQueue(*q, "output", report);
  }
  CheckQueue(router.sa_local_queue(), "sa-local", report);
  CheckQueue(router.sa_pentium_queue(), "sa-pentium", report);
}

void CheckVrpBudget(Router& router, InvariantReport* report) {
  const VrpBudget& budget = router.config().budget;
  AdmissionControl& adm = router.admission();
  if (!budget.Admits(adm.general_chain_cost())) {
    Violate(report, "VRP budget: committed general chain exceeds the per-MP budget");
  }
  if (!budget.Admits(adm.max_per_flow_cost(), adm.general_chain_cost())) {
    Violate(report,
            "VRP budget: worst per-flow forwarder plus general chain exceeds the budget");
  }
  if (adm.pentium_committed_packet_rate() > adm.pentium_max_pps) {
    Violate(report, Format("Pentium admission: committed %.0f pps exceeds the %.0f pps path",
                           adm.pentium_committed_packet_rate(), adm.pentium_max_pps));
  }
}

void CheckMemoryBounds(Router& router, InvariantReport* report) {
  MemorySystem& mem = router.chip().memory();
  const BackingStore* stores[] = {&mem.dram_store(), &mem.sram_store(), &mem.scratch_store()};
  for (const BackingStore* store : stores) {
    if (store->oob_errors() != 0) {
      Violate(report, Format("memory bounds: %" PRIu64 " out-of-bounds %s accesses",
                             store->oob_errors(), store->name().c_str()));
    }
  }

  // Flow-state ledger: every SRAM byte the arena holds beyond the fixed
  // infrastructure must be a flow table reservation or a region an
  // in-flight upgrade holds (staged before cutover, retained during soak).
  // A Remove that leaks its `.state` binding shows up here as a leak, not
  // as a slow death by arena exhaustion.
  uint64_t reserved = 0;
  for (const FlowMeta* meta : router.flow_table().All()) {
    reserved += Arena::RoundUp(meta->state_bytes, 4);
  }
  if (router.upgrade() != nullptr) {
    reserved += router.upgrade()->held_state_bytes();
  }
  const uint64_t outstanding = router.sram_arena().outstanding() - router.sram_infra_bytes();
  if (outstanding != reserved) {
    Violate(report, Format("flow-state ledger: arena holds %" PRIu64
                           " bytes beyond infrastructure, flow table + upgrade reserve %" PRIu64
                           " (leak of %" PRId64 ")",
                           outstanding, reserved,
                           static_cast<int64_t>(outstanding) - static_cast<int64_t>(reserved)));
  }
}

// Frame-pool ledger: every pooled frame acquired anywhere must be traceable
// to a live holder. Per port, outstanding buffers must equal the frames in
// flight on that port's wires (plus a mid-reassembly partial); the router
// pool's outstanding buffers must equal what the StrongARM loop holds
// across its current suspension. Any excess is a leaked exit path. The DRAM
// buffer store must never have been handed back a buffer that was not in
// use: that second release would give one buffer to two packets.
void CheckPoolLedger(Router& router, InvariantReport* report) {
  for (int p = 0; p < router.num_ports(); ++p) {
    const MacPort& port = router.port(p);
    const uint64_t outstanding = port.pool().outstanding();
    const uint64_t held = port.pooled_in_flight();
    if (outstanding != held) {
      Violate(report,
              Format("port %d pool ledger: %" PRIu64 " buffer(s) outstanding, %" PRIu64
                     " accounted in flight (leak of %" PRId64 ")",
                     p, outstanding, held,
                     static_cast<int64_t>(outstanding) - static_cast<int64_t>(held)));
    }
  }
  const uint64_t bridge_held = static_cast<uint64_t>(router.bridge().pooled_live());
  const uint64_t router_outstanding = router.packet_pool().outstanding();
  if (router_outstanding != bridge_held) {
    Violate(report,
            Format("router pool ledger: %" PRIu64 " buffer(s) outstanding, bridge holds %" PRIu64
                   " (leak of %" PRId64 ")",
                   router_outstanding, bridge_held,
                   static_cast<int64_t>(router_outstanding) - static_cast<int64_t>(bridge_held)));
  }
  if (router.buffers().double_releases() > 0) {
    Violate(report, Format("buffer store ledger: %" PRIu64 " release(s) of a buffer not in use",
                           router.buffers().double_releases()));
  }
}

}  // namespace

std::string InvariantReport::ToString() const {
  if (ok()) {
    return conservation_checked
               ? Format("all invariants hold (sources %" PRIu64 " = sinks %" PRIu64
                        " + in-flight %" PRIu64 ")",
                        sources, sinks, in_flight)
               : "all invariants hold (conservation not applicable)";
  }
  std::string out = Format("%zu invariant violation(s):", violations.size());
  for (const std::string& v : violations) {
    out += "\n  - ";
    out += v;
  }
  return out;
}

InvariantReport RouterInvariants::CheckAll(Router& router) {
  InvariantReport report;
  CheckConservation(router, &report);
  CheckMacAccounting(router, &report);
  CheckTokenLiveness(router, &report);
  CheckQueues(router, &report);
  CheckVrpBudget(router, &report);
  CheckMemoryBounds(router, &report);
  CheckPoolLedger(router, &report);
  if (!report.ok()) {
    // Freeze the flight recorder: the ring now holds the span records
    // closest to whatever broke the invariant.
    NPR_OBS_HOOK(router.observer(), TriggerDump("invariant", 0));
  }
  return report;
}

InvariantReport RouterInvariants::CheckCluster(ClusterRouter& cluster) {
  InvariantReport report;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    InvariantReport node = CheckAll(cluster.node(k));
    for (std::string& v : node.violations) {
      report.violations.push_back(Format("node%d: %s", k, v.c_str()));
    }
    if (node.conservation_checked) {
      report.conservation_checked = true;
      report.sources += node.sources;
      report.sinks += node.sinks;
      report.in_flight += node.in_flight;
    }
  }
  for (int plane = 0; plane < cluster.num_planes(); ++plane) {
    SwitchFabric& fabric = cluster.fabric(plane);
    SwitchFabric::MemberStats sum;
    for (int k = 0; k < cluster.num_nodes(); ++k) {
      const MacAddr macs[] = {ClusterNodeMac(k, plane), ClusterControlMac(k, plane)};
      const char* roles[] = {"data", "control"};
      for (int m = 0; m < 2; ++m) {
        const SwitchFabric::MemberStats ms = fabric.member_stats(macs[m]);
        sum.forwarded += ms.forwarded;
        sum.unknown_dropped += ms.unknown_dropped;
        sum.link_down_dropped += ms.link_down_dropped;
        sum.node_down_dropped += ms.node_down_dropped;
        sum.injected_dropped += ms.injected_dropped;
        if (ms.unknown_dropped != 0) {
          Violate(&report,
                  Format("fabric plane %d: node%d (%s) sent %" PRIu64
                         " frame(s) to a destination nobody answers on (blackhole)",
                         plane, k, roles[m], ms.unknown_dropped));
        }
      }
    }
    if (sum.forwarded != fabric.forwarded()) {
      Violate(&report, Format("fabric plane %d: per-member forwarded %" PRIu64
                              " != fabric forwarded %" PRIu64,
                              plane, sum.forwarded, fabric.forwarded()));
    }
    if (sum.unknown_dropped != fabric.unknown_destination()) {
      Violate(&report, Format("fabric plane %d: per-member unknown drops %" PRIu64
                              " != fabric unknown %" PRIu64,
                              plane, sum.unknown_dropped, fabric.unknown_destination()));
    }
    const uint64_t gate_sum =
        sum.link_down_dropped + sum.node_down_dropped + sum.injected_dropped;
    if (gate_sum != fabric.gate_dropped()) {
      Violate(&report, Format("fabric plane %d: per-member gate drops %" PRIu64
                              " != fabric gate drops %" PRIu64,
                              plane, gate_sum, fabric.gate_dropped()));
    }
  }
  return report;
}

}  // namespace npr
