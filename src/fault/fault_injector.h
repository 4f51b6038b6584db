// Deterministic fault injector.
//
// One FaultInjector instance is owned by the Router when its config carries a
// non-empty FaultPlan, and a raw pointer to it is handed to every hook site
// (memory channels, backing stores, MAC ports, token rings, packet queues,
// stage context loops). Each hook asks the injector a question ("extra
// latency for this access?", "does this frame survive the wire?") and the
// injector answers from its private seeded Rng, so a given (plan, workload)
// pair produces the identical fault sequence on every run.
//
// Hooks that a plan leaves disabled consume no Rng draws, so enabling one
// fault class does not perturb the schedule of another.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/fault/fault_plan.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace npr {

struct VrpProgram;

enum class FaultKind : uint8_t {
  kMemLatencySpike,
  kMemBitFlip,
  kFrameCrcDrop,
  kFrameCorrupt,
  kFrameTruncate,
  kRxStall,
  kContextCrash,
  kTokenDrop,
  kDescCorrupt,
  kTokenLost,
  kRestartLost,
  kPentiumHang,
  kVrpTrap,
  kCtrlDrop,
  kCtrlDup,
  kCtrlDelay,
  kLinkDown,
  kFabricFrameLoss,
  kNodeCrash,
  kUpgradeCrash,
  kImageCorrupt,
  kCount,
};

inline constexpr size_t kFaultKindCount = static_cast<size_t>(FaultKind::kCount);

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, EventQueue& engine);

  const FaultPlan& plan() const { return plan_; }

  // Number of faults of `kind` injected so far.
  uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<size_t>(kind)];
  }
  uint64_t total_injected() const;

  // --- memory channel / backing store hooks ---

  // Extra latency (possibly 0) to add to one memory access.
  SimTime MemExtraLatencyPs();

  // Possibly flips one bit in the bytes being returned from a read. Returns
  // true if a flip happened. The backing store itself is not modified.
  bool MaybeFlipReadBits(std::span<uint8_t> out);

  // --- MAC port hooks ---

  enum class FrameFault : uint8_t { kNone, kCrcDrop, kCorrupt, kTruncate };

  // Decides the fate of one received frame. kCorrupt flips one bit inside
  // the IP header in place (so the checksum fails downstream); kTruncate
  // sets *truncate_to to the surviving byte count.
  FrameFault OnFrameRx(std::span<uint8_t> frame, size_t* truncate_to);

  // Extra stall (possibly 0) before the RX path accepts a frame.
  SimTime RxStallPs();

  // --- token ring hooks ---

  // Extra delay (possibly 0) for one token hand-off, modelling a dropped
  // offer that has to be redelivered.
  SimTime TokenOfferDelayPs();

  // True when this hand-off loses the token outright (the offer never
  // arrives; recovery requires regeneration).
  bool ShouldLoseToken();

  // --- context crash hooks ---

  // Polled by stage context loops at their crash-safe point (top of loop,
  // no token or claim held). Crashes follow an exponential inter-arrival
  // process; at most one context crashes per deadline.
  bool ShouldCrashContext();

  SimTime context_restart_ps() const { return plan_.context_restart_ps; }

  // True when the scheduled restart of a crashed context is lost (the
  // restart event must not be scheduled; a watchdog recovers the context).
  bool ShouldLoseRestart();

  // --- Pentium hook ---

  // Polled by the Pentium loop at its top. Nonzero when a hang is due: the
  // loop busies itself for the returned duration, ignoring doorbells.
  // Hangs follow an exponential inter-arrival process.
  SimTime PentiumHangPs();

  // Simulated instant the most recent Pentium hang began (MTTD accounting).
  SimTime last_pentium_hang_at() const { return last_hang_at_; }

  // --- control channel hook ---

  enum class CtrlFault : uint8_t { kNone, kDrop, kDup, kDelay };

  // Decides the fate of one control message (or ack). kDelay sets
  // *extra_delay_ps to the added transit time.
  CtrlFault OnCtrlMessage(SimTime* extra_delay_ps);

  // --- VRP runtime hook ---

  // True when this program run traps at runtime despite static admission.
  bool ShouldTrapVrp();

  // --- in-service upgrade hooks ---

  // Polled by the upgrade orchestrator when a cutover/promotion step event
  // fires. True means the step is lost mid-way (the event does nothing);
  // only the orchestrator's step-deadline watchdog can recover.
  bool ShouldCrashUpgrade();

  // Possibly flips one bit in the immediate of one instruction of a VRP
  // image crossing the control channel (the sender's copy is intact — the
  // corruption happens in transit). Returns true if a flip happened; the
  // install-time checksum is what detects it.
  bool MaybeCorruptImage(VrpProgram* program);

  // --- packet queue hook ---

  // Possibly flips one bit in the low 24 encoded bits of a descriptor word
  // read back from SRAM. Returns true if a flip happened.
  bool MaybeCorruptDescriptor(uint32_t* word);

  // --- cluster hooks (polled by the node's cluster supervisor) ---

  // Nonzero when this node's internal fabric link is due to flap: the link
  // goes down for the returned duration. Exponential inter-arrivals.
  SimTime LinkDownPs();

  // True when the fabric eats this internal frame crossing.
  bool ShouldDropFabricFrame();

  // Nonzero when this node is due to crash whole: the node is dead for the
  // returned duration (kForever when plan.node_crash_ps == 0, i.e. the
  // crash is permanent fail-stop). Exponential inter-arrivals.
  static constexpr SimTime kForever = INT64_MAX;
  SimTime NodeCrashPs();

  // Simulated instants the most recent link flap / node crash began
  // (cluster MTTD accounting).
  SimTime last_link_down_at() const { return last_link_down_at_; }
  SimTime last_node_crash_at() const { return last_node_crash_at_; }

  // Disarming stops all *new* fault injection (every hook answers
  // "no fault" without consuming Rng draws). Used by recovery experiments
  // to end the fault burst and measure the healed router.
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

 private:
  void Count(FaultKind kind) { injected_[static_cast<size_t>(kind)] += 1; }

  const FaultPlan plan_;
  EventQueue& engine_;
  Rng rng_;
  bool armed_ = true;
  SimTime next_crash_at_ = 0;
  SimTime next_hang_at_ = 0;
  SimTime last_hang_at_ = 0;
  SimTime next_link_down_at_ = 0;
  SimTime next_node_crash_at_ = 0;
  SimTime last_link_down_at_ = 0;
  SimTime last_node_crash_at_ = 0;
  std::array<uint64_t, kFaultKindCount> injected_{};
};

}  // namespace npr

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
