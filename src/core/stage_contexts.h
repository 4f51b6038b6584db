// Context lifecycle shared by the input and output pipeline stages
// (§3.2–3.4): the token-ring membership of a stage's statically allocated
// MicroEngine contexts, the crash-safe point at the top of each context's
// loop, the restart (scheduled, or by the health monitor when the scheduled
// one was lost) and the liveness queries the watchdog reads.
//
// A stage adds its contexts in ring order, then installs its loop program
// once with Start; a restart reinstalls the same program for that context.

#ifndef SRC_CORE_STAGE_CONTEXTS_H_
#define SRC_CORE_STAGE_CONTEXTS_H_

#include <functional>
#include <vector>

#include "src/core/router_core.h"
#include "src/ixp/token_ring.h"
#include "src/sim/task.h"

namespace npr {

class StageContexts {
 public:
  // Builds the loop program context `index` runs.
  using LoopFn = std::function<Task(int index)>;

  explicit StageContexts(RouterCore& core);
  // Scheduled restarts hold this object's address.
  StageContexts(const StageContexts&) = delete;
  StageContexts& operator=(const StageContexts&) = delete;

  // Joins `ctx` to the token ring as context number size(). A context's
  // index is also its ring member id.
  void Add(HwContext& ctx);

  // Installs every added context's loop. Call once, after the last Add.
  void Start(LoopFn loop);

  TokenRing& ring() { return ring_; }
  int size() const { return static_cast<int>(contexts_.size()); }
  HwContext& context(int index) const { return *contexts_[static_cast<size_t>(index)]; }

  // Crash-safe point at the loop top (the caller holds no token, mutex or
  // claim). True if the fault plan crashed the context: it is out of the
  // ring and its loop must co_return. Without a fault plan this is the one
  // inlined null check.
  bool Crashed(int index) { return core_.fault != nullptr && CrashDraw(index); }

  // Reinstalls a crashed context's loop and rejoins it to the ring: the
  // scheduled restart, or the watchdog's when that one was lost. A no-op if
  // the context is up (or a restart already ran), so the two can race.
  void Restart(int index);
  bool Down(int index) const { return ring_.member_down(index); }
  SimTime DownSincePs(int index) const { return ring_.member_down_since_ps(index); }

 private:
  bool CrashDraw(int index);

  RouterCore& core_;
  TokenRing ring_;
  std::vector<HwContext*> contexts_;  // ring order
  LoopFn loop_;
};

}  // namespace npr

#endif  // SRC_CORE_STAGE_CONTEXTS_H_
