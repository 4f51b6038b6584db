// Shared wiring handed to the pipeline stages, the bridge, and the host by
// the Router facade. Plain pointers: the Router owns everything and
// outlives all users.

#ifndef SRC_CORE_ROUTER_CORE_H_
#define SRC_CORE_ROUTER_CORE_H_

#include <vector>

#include "src/core/buffer_allocator.h"
#include "src/core/flow_table.h"
#include "src/core/forwarder.h"
#include "src/core/health_hooks.h"
#include "src/core/packet_queue.h"
#include "src/core/queue_plan.h"
#include "src/core/router_config.h"
#include "src/core/router_stats.h"
#include "src/ixp/ixp1200.h"
#include "src/net/mac_port.h"
#include "src/obs/observer.h"
#include "src/route/route_cache.h"
#include "src/route/route_table.h"
#include "src/vrp/interpreter.h"
#include "src/vrp/istore_layout.h"

namespace npr {

class StrongArmBridge;
class PentiumHost;
class FaultInjector;
class OverloadGovernor;
class UpgradeOrchestrator;

struct RouterCore {
  const RouterConfig* config = nullptr;
  EventQueue* engine = nullptr;
  Ixp1200* chip = nullptr;
  HostSystem* host = nullptr;

  BufferStore* buffers = nullptr;
  QueuePlan* queues = nullptr;
  RouteTable* route_table = nullptr;
  RouteCache* route_cache = nullptr;
  FlowTable* flow_table = nullptr;
  IStoreLayout* istore = nullptr;
  VrpInterpreter* vrp = nullptr;

  // Exception path: packets for StrongARM-local service and packets bound
  // for the Pentium (§3.6, §4.5).
  PacketQueue* sa_local_queue = nullptr;
  PacketQueue* sa_pentium_queue = nullptr;

  ForwarderRegistry* sa_forwarders = nullptr;
  ForwarderRegistry* pe_forwarders = nullptr;
  // Handles exceptional packets carrying IP options on the StrongARM
  // (typically the full-IP forwarder). Optional; without it the bridge
  // forwards option packets with the minimal transform.
  NativeForwarder* sa_exception_handler = nullptr;

  std::vector<MacPort*> ports;
  RouterStats* stats = nullptr;

  // Router-owned frame-buffer pool for control-plane packet materialization
  // (the StrongARM bridge pulling frames out of DRAM). Data-path RX/TX
  // frames live in the per-MacPort pools instead.
  PacketPool* pool = nullptr;

  StrongArmBridge* bridge = nullptr;
  PentiumHost* pentium = nullptr;

  // Non-null when the config carries a fault plan; stage loops poll it for
  // context crashes.
  FaultInjector* fault = nullptr;

  // Non-null when an Observer is attached (Router::SetObserver); stage
  // loops emit span records through it. Compile-time gated: with
  // NPR_OBS_ENABLED undefined the hook sites vanish entirely.
  Observer* obs = nullptr;

  // Non-null when a HealthMonitor is attached (Router::set_health_hooks);
  // the data path notifies it of traps and queries degraded-mode policy.
  HealthHooks* health = nullptr;

  // Non-null when an OverloadGovernor is attached (Router::SetGovernor);
  // the bridge polls it for host-bound shedding policy (the MacPorts hold
  // their own RxGovernorHooks pointer to the same object).
  OverloadGovernor* governor = nullptr;

  // Non-null when an UpgradeOrchestrator is attached (Router::SetUpgrade);
  // the input stage hands it pristine/post-run MP views around every VRP
  // run so the shadow comparator sees exactly what the active image saw.
  UpgradeOrchestrator* upgrade = nullptr;
};

// Span unit of a MicroEngine context.
inline uint8_t ObsUnitOf(const HwContext& ctx) {
  return ContextUnit(static_cast<uint8_t>(ctx.engine().id()), static_cast<uint8_t>(ctx.index()));
}

// Retires a packet through `sink` (see kSinks): bumps the sink's RouterStats
// counter and stamps its span point. `packet_id`, `unit` and `arg` feed only
// the span.
inline void Retire(RouterCore& core, Sink sink, [[maybe_unused]] uint32_t packet_id,
                   [[maybe_unused]] uint8_t unit, [[maybe_unused]] uint16_t arg) {
  const SinkRow& row = kSinks[static_cast<int>(sink)];
  core.stats->*row.counter += 1;
  NPR_OBS_HOOK(core.obs, Record(row.point, packet_id, unit, arg));
}

// Retires the packet held in `buffer_addr` and releases the buffer: the form
// for sinks whose every caller frees the packet's buffer (queue full,
// absorbed, shed).
inline void RetireBuffer(RouterCore& core, Sink sink, uint32_t packet_id, uint32_t buffer_addr,
                         uint8_t unit, uint16_t arg) {
  Retire(core, sink, packet_id, unit, arg);
  core.buffers->Release(buffer_addr);
}

}  // namespace npr

#endif  // SRC_CORE_ROUTER_CORE_H_
