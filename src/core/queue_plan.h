// Queue allocation and port mapping (§3.4).
//
// Builds the set of packet queues implied by the configured disciplines:
//   I.2 protected: `queues_per_port` shared queues per output port, each
//       guarded by a hardware CAM mutex;
//   I.1 private:   one queue per (input context, output port) — no locks,
//       but the output side must service many more queues (O.3).
// Output contexts are statically assigned whole ports (§3.4.4), and for
// O.3 each output context gets a Scratch readiness bit-array so it checks
// one word instead of every head pointer (§3.4.3).

#ifndef SRC_CORE_QUEUE_PLAN_H_
#define SRC_CORE_QUEUE_PLAN_H_

#include <memory>
#include <vector>

#include "src/core/mem_map.h"
#include "src/core/packet_queue.h"
#include "src/core/router_config.h"
#include "src/ixp/hw_mutex.h"
#include "src/mem/memory_system.h"
#include "src/sim/event_queue.h"

namespace npr {

class QueuePlan {
 public:
  QueuePlan(EventQueue& engine, MemorySystem& memory, const RouterConfig& config,
            Arena& sram_arena, Arena& scratch_arena, int num_input_contexts,
            int num_output_contexts);

  // The queue an input context must use for (port, priority).
  PacketQueue& QueueFor(int input_ctx, uint8_t out_port, uint32_t priority);
  // Whether this plan built the queue. The bridge's exception queues are
  // not in the plan; plan accessors treat them as mutex-less and not ready.
  bool Owns(const PacketQueue& queue) const;
  // The mutex protecting that queue, or nullptr under private queueing
  // (and for queues the plan does not own).
  HwMutex* MutexFor(const PacketQueue& queue);

  // Queues an output context services, highest priority first.
  const std::vector<PacketQueue*>& QueuesForOutputContext(int out_ctx) const {
    return by_output_ctx_[static_cast<size_t>(out_ctx)];
  }
  int OutputContextForPort(uint8_t port) const {
    return port_to_out_ctx_[static_cast<size_t>(port)];
  }
  // The output port a queue feeds.
  uint8_t PortOf(const PacketQueue& queue) const {
    return aux_[static_cast<size_t>(queue.id())].port;
  }

  // Readiness bit-array support (O.3).
  void MarkReady(const PacketQueue& queue);
  void ClearReady(const PacketQueue& queue);
  bool IsReady(const PacketQueue& queue) const;

  const std::vector<std::unique_ptr<PacketQueue>>& all_queues() const { return queues_; }
  uint64_t TotalDrops() const;

 private:
  struct QueueAux {
    HwMutex* mutex = nullptr;  // owned below
    int out_ctx = 0;
    uint8_t port = 0;
    uint32_t ready_word = 0;  // scratch address
    uint32_t ready_bit = 0;
  };

  BackingStore& scratch_store_;
  const InputQueueing input_queueing_;
  const int num_ports_;
  const int queues_per_port_;
  const int num_input_contexts_;

  std::vector<std::unique_ptr<PacketQueue>> queues_;
  std::vector<QueueAux> aux_;  // parallel to queues_
  std::vector<std::unique_ptr<HwMutex>> mutexes_;
  std::vector<std::vector<PacketQueue*>> by_output_ctx_;
  std::vector<int> port_to_out_ctx_;

  size_t IndexFor(int input_ctx, uint8_t out_port, uint32_t priority) const;
};

}  // namespace npr

#endif  // SRC_CORE_QUEUE_PLAN_H_
