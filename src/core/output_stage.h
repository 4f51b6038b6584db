// Output pipeline stage (§3.3, Figure 6).
//
// Output contexts are statically assigned whole ports and FIFO slots; a
// token ring identical to the input side serializes them so the strictly
// ordered transmit FIFO is consumed correctly. Each iteration the context
// either continues streaming the MPs of its current packet or selects the
// next non-empty queue per the configured servicing discipline (O.1
// batching / O.2 per-packet head checks / O.3 readiness indirection).

#ifndef SRC_CORE_OUTPUT_STAGE_H_
#define SRC_CORE_OUTPUT_STAGE_H_

#include <deque>
#include <utility>
#include <vector>

#include "src/core/router_core.h"
#include "src/core/stage_contexts.h"
#include "src/sim/task.h"

namespace npr {

class OutputStage {
 public:
  explicit OutputStage(RouterCore& core);

  // Installs and starts the context programs. Call once.
  void Start();

  TokenRing& token_ring() { return contexts_.ring(); }
  // The stage's contexts (see InputStage::contexts).
  StageContexts& contexts() { return contexts_; }

  // Completes a packet on behalf of the StrongARM/Pentium return path
  // (those processors hand packets back to ordinary output queues; the
  // output stage transmits them like any other packet).
  void DeliverMpToPort(uint8_t port, const Mp& mp);

  // Packets currently mid-stream out of DRAM (counted for conservation).
  int active_streams() const;

 private:
  struct Streaming {
    bool active = false;
    PacketDescriptor desc;
    uint16_t next_mp = 0;
    PacketQueue* queue = nullptr;
    uint32_t batch_remaining = 0;
    uint32_t pops_since_burst = 0;
  };

  Task ContextLoop(int out_ctx_index);
  void CompletePacket(const PacketDescriptor& desc);

  // Delivers the oldest MP handed to the transmit DMA. The IX bus is a
  // single FIFO server with a fixed setup delay, so completions arrive in
  // issue order; parking MPs here (instead of in each completion event's
  // capture) keeps the per-MP DMA event allocation-free.
  void DeliverHeadFromDma();

  RouterCore& core_;
  StageContexts contexts_;
  std::vector<Streaming> streaming_;  // per output context
  // output_fake_data mode: the eternal descriptor served when queues are
  // empty (see RouterConfig).
  PacketDescriptor fake_desc_;
  bool fake_ready_ = false;
  std::deque<std::pair<uint8_t, Mp>> dma_in_flight_;  // (port, mp), bus FIFO order
};

}  // namespace npr

#endif  // SRC_CORE_OUTPUT_STAGE_H_
