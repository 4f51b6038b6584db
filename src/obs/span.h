// Per-packet span records (observability layer).
//
// A span is one (sim-time, unit, point) stamp on a packet's journey through
// the router: MAC RX -> input context -> queue -> output context -> MAC TX,
// plus the StrongARM (path B) and Pentium (path C) detours. Records are
// fixed-size and the recording path is allocation-free; the layer is
// compiled out entirely when NPR_OBS_ENABLED is not defined, leaving the
// simulation bit-identical.

#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <cstdint>

namespace npr {

// Where in the pipeline a span was stamped. Numbering and names (in
// kSpanPoints below) are stable: the golden trace file and
// docs/observability.md depend on them.
enum class SpanPoint : uint8_t {
  // --- wire / MAC ---
  kMacRxFrame = 0,   // frame fully received into port memory
  kMacTxFrame,       // reassembled frame paced onto the wire

  // --- input contexts (path A ingress) ---
  kPktIngress,       // SOP MP claimed, buffer allocated (ingress accounting point)
  kInClassified,     // route/VRP classification done (arg = disposition)
  kInEnqueued,       // EOP accepted into a plan output queue (arg = out port)
  kInToSa,           // EOP handed to the StrongARM local queue (path B)
  kInToPe,           // EOP handed to the Pentium-bound queue (path C)

  // --- terminal drops (sinks: see kSinks in src/core/router_stats.h) ---
  kDropInvalid,      // failed header validation
  kDropVrp,          // VRP policy drop
  kDropQueueFull,    // bounded queue rejected the descriptor
  kDropNoBuffer,     // buffer pool exhausted before ingress accounting

  // --- packet queues (descriptor level; packet_id is the buffer index) ---
  kQueuePush,
  kQueuePop,
  kQueueCorrupt,     // descriptor corrupted on pop; packet lost

  // --- output contexts ---
  kOutDequeued,      // descriptor popped and validated (arg = out port)
  kOutLostLap,       // buffer reuse lapped the queue; original packet lost
  kPktTxComplete,    // last MP streamed to the MAC; forwarded (arg = out port)

  // --- StrongARM bridge (path B) ---
  kSaDequeued,       // StrongARM picked the packet from its local queue
  kSaForwarded,      // slow-path forwarder re-enqueued it to an output queue
  kSaReturnEnqueued, // Pentium-returned packet re-enqueued to an output queue
  kSaAbsorbed,       // forwarder consumed the packet locally
  kSaLapped,         // lapped while waiting for the StrongARM
  kSaShedPe,         // shed because the Pentium path is degraded
  kIcmpOriginated,   // StrongARM sourced an ICMP packet (new chain)

  // --- Pentium host (path C) ---
  kBridgeToPe,       // bridge issued the PCI/I2O DMA toward the Pentium
  kPeIntake,         // Pentium picked the packet off the inbound I2O frame
  kPeServiced,       // Pentium forwarder finished (arg = out port)
  kPeAbsorbed,       // Pentium consumed/dropped the packet
  kPeReturned,       // return DMA landed back at the StrongARM

  // --- faults and recovery ---
  kFault,            // a FaultInjector hook fired (arg = FaultKind)
  kRecovery,         // the HealthMonitor repaired something (arg = RecoveryEvent kind)

  // --- overload governor (appended; numbering above is stable) ---
  kDropGovRed,       // stage 1: RED early drop at MAC RX (pre-ingress)
  kDropGovPolice,    // stage 2: heavy-hitter policing at MAC RX (pre-ingress)
  kDropGovQuench,    // stage 4: hard shed at MAC RX (pre-ingress)
  kSaShedGov,        // stage 3: bridge shed host-bound work under overload
  kGovStage,         // governor ladder transition (arg = new stage)

  kCount
};

inline constexpr int kSpanPointCount = static_cast<int>(SpanPoint::kCount);

// What a point does to a packet's chain (the observer's in-flight tracker
// and the reconciliation against RouterStats both key off it).
enum class SpanRole : uint8_t {
  kSource,             // opens a chain (ingress accounting, ICMP origination)
  kStep,               // moves an open chain along
  kErasingTerminal,    // the packet left the router; its chain closes
  kLapTerminal,        // the packet left, but the record names its successor's still-open chain
  kPreIngressTerminal, // dropped before ingress accounting; no chain was opened
  kUntracked,          // MAC, queue, fault, recovery and other non-chain records
};

// Which forwarding path a packet took (§3 of the paper): A = pure
// MicroEngine, B = StrongARM exception path, C = Pentium via PCI/I2O.
enum class PathKind : uint8_t { kPathA = 0, kPathB, kPathC, kCount };
inline constexpr int kPathKindCount = static_cast<int>(PathKind::kCount);

// Pipeline stage boundaries for the per-stage latency histograms.
enum class HopKind : uint8_t {
  kInput = 0,   // ingress -> enqueue (input context residency)
  kQueueWait,   // enqueue -> dequeue (descriptor queue wait)
  kOutput,      // dequeue -> tx complete (output context residency)
  kSaService,   // StrongARM pickup -> verdict (path B service)
  kPeService,   // bridge DMA -> return DMA landed (path C round trip)
  kCount
};
inline constexpr int kHopKindCount = static_cast<int>(HopKind::kCount);
inline constexpr HopKind kNoHop = HopKind::kCount;

struct SpanPointInfo {
  SpanPoint point;
  const char* name;  // short stable name for traces and dumps
  SpanRole role;
  HopKind hop = kNoHop;  // the stage this point ends, timed from the previous one
  // A source's starting path; for a step, the path the chain moves up to
  // (paths only move A -> B -> C).
  PathKind path = PathKind::kCount;
};

// One row per SpanPoint, in enum order.
inline constexpr SpanPointInfo kSpanPoints[kSpanPointCount] = {
    {SpanPoint::kMacRxFrame, "mac.rx_frame", SpanRole::kUntracked},
    {SpanPoint::kMacTxFrame, "mac.tx_frame", SpanRole::kUntracked},
    {SpanPoint::kPktIngress, "in.ingress", SpanRole::kSource, kNoHop, PathKind::kPathA},
    {SpanPoint::kInClassified, "in.classified", SpanRole::kUntracked},
    {SpanPoint::kInEnqueued, "in.enqueued", SpanRole::kStep, HopKind::kInput},
    {SpanPoint::kInToSa, "in.to_sa", SpanRole::kStep, HopKind::kInput, PathKind::kPathB},
    {SpanPoint::kInToPe, "in.to_pe", SpanRole::kStep, HopKind::kInput, PathKind::kPathC},
    {SpanPoint::kDropInvalid, "drop.invalid", SpanRole::kErasingTerminal},
    {SpanPoint::kDropVrp, "drop.vrp", SpanRole::kErasingTerminal},
    {SpanPoint::kDropQueueFull, "drop.queue_full", SpanRole::kErasingTerminal},
    {SpanPoint::kDropNoBuffer, "drop.no_buffer", SpanRole::kPreIngressTerminal},
    {SpanPoint::kQueuePush, "queue.push", SpanRole::kUntracked},
    {SpanPoint::kQueuePop, "queue.pop", SpanRole::kUntracked},
    {SpanPoint::kQueueCorrupt, "queue.corrupt", SpanRole::kUntracked},
    {SpanPoint::kOutDequeued, "out.dequeued", SpanRole::kStep, HopKind::kQueueWait},
    {SpanPoint::kOutLostLap, "out.lost_lap", SpanRole::kLapTerminal},
    {SpanPoint::kPktTxComplete, "out.tx_complete", SpanRole::kErasingTerminal, HopKind::kOutput},
    {SpanPoint::kSaDequeued, "sa.dequeued", SpanRole::kStep, HopKind::kQueueWait, PathKind::kPathB},
    {SpanPoint::kSaForwarded, "sa.forwarded", SpanRole::kStep, HopKind::kSaService},
    {SpanPoint::kSaReturnEnqueued, "sa.return_enqueued", SpanRole::kStep, HopKind::kSaService},
    {SpanPoint::kSaAbsorbed, "sa.absorbed", SpanRole::kErasingTerminal, HopKind::kSaService},
    {SpanPoint::kSaLapped, "sa.lapped", SpanRole::kLapTerminal},
    {SpanPoint::kSaShedPe, "sa.shed_pe", SpanRole::kErasingTerminal, HopKind::kSaService},
    {SpanPoint::kIcmpOriginated, "sa.icmp_originated", SpanRole::kSource, kNoHop, PathKind::kPathB},
    {SpanPoint::kBridgeToPe, "pe.bridge_to_pe", SpanRole::kStep, HopKind::kQueueWait,
     PathKind::kPathC},
    {SpanPoint::kPeIntake, "pe.intake", SpanRole::kStep, kNoHop, PathKind::kPathC},
    {SpanPoint::kPeServiced, "pe.serviced", SpanRole::kStep},
    {SpanPoint::kPeAbsorbed, "pe.absorbed", SpanRole::kErasingTerminal, HopKind::kPeService},
    {SpanPoint::kPeReturned, "pe.returned", SpanRole::kStep, HopKind::kPeService},
    {SpanPoint::kFault, "fault", SpanRole::kUntracked},
    {SpanPoint::kRecovery, "recovery", SpanRole::kUntracked},
    {SpanPoint::kDropGovRed, "drop.gov_red", SpanRole::kPreIngressTerminal},
    {SpanPoint::kDropGovPolice, "drop.gov_police", SpanRole::kPreIngressTerminal},
    {SpanPoint::kDropGovQuench, "drop.gov_quench", SpanRole::kPreIngressTerminal},
    {SpanPoint::kSaShedGov, "sa.shed_gov", SpanRole::kErasingTerminal},
    {SpanPoint::kGovStage, "gov.stage", SpanRole::kUntracked},
};

static_assert(
    [] {
      for (int i = 0; i < kSpanPointCount; ++i) {
        if (static_cast<int>(kSpanPoints[i].point) != i) return false;
      }
      return true;
    }(),
    "kSpanPoints needs one row per SpanPoint, in enum order");

inline constexpr SpanRole SpanRoleOf(SpanPoint p) {
  return kSpanPoints[static_cast<int>(p)].role;
}

// Short stable name for traces and dumps (e.g. "in.enqueued").
inline constexpr const char* SpanPointName(SpanPoint p) {
  return static_cast<int>(p) < kSpanPointCount ? kSpanPoints[static_cast<int>(p)].name : "?";
}

// Terminal points end a packet's stay in the router; lap terminals do so
// without closing the chain of the id they carry.
inline constexpr bool IsTerminal(SpanPoint p) {
  const SpanRole r = SpanRoleOf(p);
  return r == SpanRole::kErasingTerminal || r == SpanRole::kLapTerminal ||
         r == SpanRole::kPreIngressTerminal;
}

inline constexpr bool IsErasingTerminal(SpanPoint p) {
  return SpanRoleOf(p) == SpanRole::kErasingTerminal;
}

// Executing unit encoding for SpanRecord::unit. MicroEngine contexts map to
// me*4+ctx (0..23); fixed codes cover everything that is not a context.
inline constexpr uint8_t kUnitMacBase = 0xA0;   // MAC port p -> 0xA0 + p
inline constexpr uint8_t kUnitQueue = 0xC0;     // packet-queue subsystem
inline constexpr uint8_t kUnitStrongArm = 0xF0;
inline constexpr uint8_t kUnitPentium = 0xF1;
inline constexpr uint8_t kUnitHealth = 0xF2;
inline constexpr uint8_t kUnitGovernor = 0xF3;
inline constexpr uint8_t kUnitNone = 0xFF;

inline constexpr uint8_t ContextUnit(uint8_t me_id, uint8_t ctx_index) {
  return static_cast<uint8_t>(me_id * 4 + ctx_index);
}

// One stamp. 16 bytes, trivially copyable; the flight-recorder ring and the
// golden-trace capture are arrays of these.
struct SpanRecord {
  uint64_t t_ps = 0;       // simulated time of the stamp
  uint32_t packet_id = 0;  // Packet::id(); buffer index for kQueue* points
  uint8_t point = 0;       // SpanPoint
  uint8_t unit = 0;        // executing unit (see encoding above)
  uint16_t arg = 0;        // point-specific (port, disposition, fault kind, ...)
};

static_assert(sizeof(SpanRecord) == 16, "span records are packed to 16 bytes");

}  // namespace npr

#endif  // SRC_OBS_SPAN_H_
