// Router-wide statistics, including the per-stage operation accounting that
// reproduces Table 2.

#ifndef SRC_CORE_ROUTER_STATS_H_
#define SRC_CORE_ROUTER_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/obs/span.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace npr {

// Per-pipeline-stage operation counts, accumulated per MP processed. The
// Table 2 bench divides these by `mps`.
struct StageStats {
  uint64_t mps = 0;
  uint64_t packets = 0;
  uint64_t reg_cycles = 0;
  uint64_t sram_reads = 0;
  uint64_t sram_writes = 0;
  uint64_t dram_reads = 0;
  uint64_t dram_writes = 0;
  uint64_t scratch_reads = 0;
  uint64_t scratch_writes = 0;
  // CAM mutex traffic, kept separate from the data-path SRAM ops the way
  // the paper's Table 2 instrumentation does.
  uint64_t mutex_ops = 0;

  void Reset() { *this = StageStats{}; }
  double PerMp(uint64_t v) const {
    return mps == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(mps);
  }
};

struct RouterStats {
  StageStats input;
  StageStats output;

  // Packet dispositions.
  uint64_t forwarded = 0;          // fully transmitted out a port
  uint64_t dropped_invalid = 0;    // failed IP validation
  uint64_t dropped_by_vrp = 0;     // a data forwarder said drop
  uint64_t dropped_queue_full = 0; // no room in the destination queue
  uint64_t lost_overwritten = 0;   // circular buffer lapped before transmit
  uint64_t dropped_no_buffer = 0;  // stack pool exhausted (§3.2.3 alternative)
  uint64_t vrp_traps = 0;          // runtime budget violations

  // Hierarchy traffic.
  // Output-loop iteration mix (diagnostics).
  uint64_t output_idle_iters = 0;  // token held, no ready queue
  uint64_t output_lost_iters = 0;  // dequeued a lapped buffer

  uint64_t exceptional = 0;         // diverted to the StrongARM (any reason)
  uint64_t to_pentium = 0;          // enqueued toward the Pentium
  uint64_t sa_local_processed = 0;  // packets the StrongARM forwarded itself
  uint64_t icmp_generated = 0;      // errors originated on the exception path
  uint64_t pentium_processed = 0;

  // Packet-conservation bookkeeping (RouterInvariants; kSinks below lists
  // every way a packet leaves the system).
  uint64_t sa_lapped = 0;        // exception-queue pop hit a lapped buffer
  uint64_t sa_absorbed = 0;      // StrongARM consumed/dropped the packet
  uint64_t pe_absorbed = 0;      // Pentium consumed/dropped the packet
  uint64_t icmp_originated = 0;  // ICMP errors built in fresh buffers (a source)

  // Fault-injection outcomes.
  uint64_t context_crashes = 0;
  uint64_t context_restarts = 0;

  // Self-healing subsystem (src/health): detection and recovery counters.
  uint64_t watchdog_fired = 0;          // any health deadline tripped
  uint64_t tokens_regenerated = 0;      // lost tokens re-issued
  uint64_t forwarders_quarantined = 0;  // trapping forwarders auto-removed
  uint64_t ctrl_retries = 0;            // control messages resent after timeout
  uint64_t ctrl_timeouts = 0;           // control ops abandoned (max retries)
  uint64_t pkts_shed_degraded = 0;      // path-C packets shed while degraded

  // Overload governor (src/core/overload.h): every governor-shed packet is
  // attributed to the ladder stage that shed it. The MAC-RX counters mirror
  // the per-port MacPort counters (RouterInvariants cross-checks the sums).
  uint64_t gov_red_dropped = 0;   // stage 1: RED early drop at MAC RX
  uint64_t gov_policed = 0;       // stage 2: heavy-hitter policing at MAC RX
  uint64_t gov_quenched = 0;      // stage 4: hard shed at MAC RX (+ quench log)
  uint64_t gov_shed_pe = 0;       // stage 3: Pentium-bound shed at the bridge
  uint64_t gov_shed_sa = 0;       // stage 3: SA-local-bound shed at the bridge
  uint64_t gov_escalations = 0;   // ladder stage increases

  // In-service upgrades (src/core/upgrade.h).
  uint64_t upgrades_started = 0;
  uint64_t upgrades_promoted = 0;
  uint64_t upgrade_rollbacks = 0;        // soak failed; old image restored
  uint64_t upgrade_aborts = 0;           // pre-commit abort (shadow/crash)
  uint64_t upgrade_divergences = 0;      // shadow/soak comparator mismatches
  uint64_t upgrade_checksum_rejects = 0; // corrupted images refused at install

  // Cluster control plane (src/cluster + src/control): reconvergence work
  // charged to this node.
  uint64_t spf_recomputes = 0;     // Dijkstra re-runs triggered by LSA change
  uint64_t routes_withdrawn = 0;   // prefixes pulled after a failure
  uint64_t lsas_reflooded = 0;     // LSAs this node re-originated or relayed

  // End-to-end latency of forwarded packets, in nanoseconds.
  Histogram latency_ns;
  // Forwarding rate over the measurement window.
  RateMeter forward_rate;
  SimTime window_start = 0;

  // Begins a measurement window (discards warmup).
  void StartWindow(SimTime now) {
    window_start = now;
    forward_rate.StartWindow(now);
    input.Reset();
    output.Reset();
    latency_ns.Reset();
  }
};

// Every way a packet leaves the router other than `forwarded`, declared
// once: its counter, its span point, and whether packet conservation counts
// it. Retire (router_core.h) bumps the counter and stamps the span. A new
// sink is a counter, a Sink and a row here, and its Retire calls.
enum class Sink : uint8_t {
  kInvalid, kVrp, kQueueFull, kLostLap, kSaLapped, kSaAbsorbed, kPeAbsorbed, kShedDegraded,
  kGovShedPe, kGovShedSa,
  // Before ingress accounting, outside packet conservation. The MAC-RX
  // governor drops are counted by the OverloadGovernor and stamped by the
  // MacPort, not through Retire.
  kNoBuffer, kGovRed, kGovPolice, kGovQuench,
  kCount
};

inline constexpr int kSinkCount = static_cast<int>(Sink::kCount);

struct SinkRow {
  Sink sink;
  uint64_t RouterStats::*counter;
  SpanPoint point;
  bool conserved;  // counted by RouterInvariants' packet conservation
};

// One row per Sink, in enum order.
inline constexpr SinkRow kSinks[kSinkCount] = {
    {Sink::kInvalid, &RouterStats::dropped_invalid, SpanPoint::kDropInvalid, true},
    {Sink::kVrp, &RouterStats::dropped_by_vrp, SpanPoint::kDropVrp, true},
    {Sink::kQueueFull, &RouterStats::dropped_queue_full, SpanPoint::kDropQueueFull, true},
    {Sink::kLostLap, &RouterStats::lost_overwritten, SpanPoint::kOutLostLap, true},
    {Sink::kSaLapped, &RouterStats::sa_lapped, SpanPoint::kSaLapped, true},
    {Sink::kSaAbsorbed, &RouterStats::sa_absorbed, SpanPoint::kSaAbsorbed, true},
    {Sink::kPeAbsorbed, &RouterStats::pe_absorbed, SpanPoint::kPeAbsorbed, true},
    {Sink::kShedDegraded, &RouterStats::pkts_shed_degraded, SpanPoint::kSaShedPe, true},
    {Sink::kGovShedPe, &RouterStats::gov_shed_pe, SpanPoint::kSaShedGov, true},
    {Sink::kGovShedSa, &RouterStats::gov_shed_sa, SpanPoint::kSaShedGov, true},
    {Sink::kNoBuffer, &RouterStats::dropped_no_buffer, SpanPoint::kDropNoBuffer, false},
    {Sink::kGovRed, &RouterStats::gov_red_dropped, SpanPoint::kDropGovRed, false},
    {Sink::kGovPolice, &RouterStats::gov_policed, SpanPoint::kDropGovPolice, false},
    {Sink::kGovQuench, &RouterStats::gov_quenched, SpanPoint::kDropGovQuench, false},
};

static_assert(
    [] {
      for (int i = 0; i < kSinkCount; ++i) {
        if (static_cast<int>(kSinks[i].sink) != i) return false;
      }
      return true;
    }(),
    "kSinks needs one row per Sink, in enum order");

// One-line summary of the self-healing counters for end-to-end output.
inline std::string HealthSummary(const RouterStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "health: watchdog_fired=%llu tokens_regenerated=%llu "
                "forwarders_quarantined=%llu ctrl_retries=%llu ctrl_timeouts=%llu "
                "pkts_shed_degraded=%llu",
                static_cast<unsigned long long>(s.watchdog_fired),
                static_cast<unsigned long long>(s.tokens_regenerated),
                static_cast<unsigned long long>(s.forwarders_quarantined),
                static_cast<unsigned long long>(s.ctrl_retries),
                static_cast<unsigned long long>(s.ctrl_timeouts),
                static_cast<unsigned long long>(s.pkts_shed_degraded));
  return std::string(buf);
}

}  // namespace npr

#endif  // SRC_CORE_ROUTER_STATS_H_
