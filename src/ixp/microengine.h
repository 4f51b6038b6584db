// MicroEngine and hardware-context model.
//
// Each of the IXP1200's six MicroEngines has one execution pipeline shared
// by four hardware contexts. Non-memory instructions run to completion; a
// context *swaps out* on every memory reference (or voluntary yield), at
// which point the engine immediately dispatches the next ready context.
// This is the mechanism the paper relies on to hide memory latency, and it
// is modelled literally: a context is a coroutine, `Compute(n)` occupies the
// pipeline for n cycles, and every awaited memory access releases it.

#ifndef SRC_IXP_MICROENGINE_H_
#define SRC_IXP_MICROENGINE_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mem/memory_channel.h"
#include "src/obs/cycle_profiler.h"
#include "src/sim/event_queue.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace npr {

class MicroEngine;

// One of the four hardware contexts of a MicroEngine. The loop a context
// runs is expressed as a coroutine (see core/input_stage.cc for the main
// examples) that awaits the primitives below.
class HwContext {
 public:
  HwContext(MicroEngine& me, int index);

  HwContext(const HwContext&) = delete;
  HwContext& operator=(const HwContext&) = delete;

  // Occupies the MicroEngine pipeline for `cycles` cycles (register-only
  // instructions). The context keeps the engine; no swap occurs.
  struct ComputeAwaiter {
    HwContext* ctx;
    uint32_t cycles;
    bool await_ready() const { return cycles == 0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}
  };
  ComputeAwaiter Compute(uint32_t cycles) { return ComputeAwaiter{this, cycles}; }

  // Issues a memory access and swaps out until it completes.
  struct MemAwaiter {
    HwContext* ctx;
    MemoryChannel* channel;
    uint32_t bytes;
    bool is_write;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}
  };
  MemAwaiter Read(MemoryChannel& channel, uint32_t bytes) {
    return MemAwaiter{this, &channel, bytes, false};
  }
  MemAwaiter Write(MemoryChannel& channel, uint32_t bytes) {
    return MemAwaiter{this, &channel, bytes, true};
  }

  // Posted write: the access is issued but the context does not wait for it
  // (nor swap out). The issuing instruction itself must be charged by the
  // caller as part of a Compute() block.
  void Post(MemoryChannel& channel, uint32_t bytes);

  // n posted writes of bytes_each issued back to back at this instant, via
  // MemoryChannel::IssueBurst: per-access accounting identical to n Post
  // calls, one channel transaction loop instead of n.
  void PostBurst(MemoryChannel& channel, uint32_t n, uint32_t bytes_each);

  // Swaps out until an external waker calls MakeReady() (token grant, mutex
  // grant, FIFO valid signal, queue doorbell...).
  struct BlockAwaiter {
    HwContext* ctx;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}
  };
  BlockAwaiter Block() { return BlockAwaiter{this}; }

  // Voluntary swap: lets other ready contexts of this engine run, then
  // continues (round-robin).
  struct YieldAwaiter {
    HwContext* ctx;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}
  };
  YieldAwaiter Yield() { return YieldAwaiter{this}; }

  // Installs the context's program and makes it runnable. A context may be
  // reinstalled after its previous program finished (crash-and-restart).
  void Install(Task task);

  // Wakes a context blocked in Block(). Called by synchronization
  // primitives; a no-op is an error (asserted).
  void MakeReady();

  // True if the context is blocked in Block() awaiting an external waker.
  bool IsBlocked() const { return state_ == State::kBlocked; }

  MicroEngine& engine() const { return me_; }
  int index() const { return index_; }

  // Tags what the *next* blocking suspension is waiting on, so the cycle
  // profiler can classify the blocked time. Memory references tag
  // themselves from the channel; token-ring and mutex awaiters call this
  // before blocking. Reset to kFifo after each attribution.
  void set_wait_class(WaitClass w) { wait_class_ = w; }

  // --- accounting ---
  uint64_t compute_cycles() const { return compute_cycles_; }
  uint64_t mem_reads() const { return mem_reads_; }
  uint64_t mem_writes() const { return mem_writes_; }
  // Time spent waiting for the pipeline after becoming ready (unhidden
  // latency: all-four-contexts-blocked shows up here as zero, pipeline
  // contention as positive values).
  SimTime ready_wait_ps() const { return ready_wait_ps_; }

 private:
  friend class MicroEngine;

  enum class State {
    kIdle,      // no program, or program finished
    kReady,     // runnable, waiting for the pipeline
    kRunning,   // owns the pipeline (incl. during Compute)
    kBlocked,   // swapped out on memory/Block
  };

  void ResumeNow();

  MicroEngine& me_;
  const int index_;
  Task task_;
  bool installed_ = false;
  bool started_ = false;
  State state_ = State::kIdle;
  std::coroutine_handle<> pending_;
  SimTime ready_since_ = 0;

  uint64_t compute_cycles_ = 0;
  uint64_t mem_reads_ = 0;
  uint64_t mem_writes_ = 0;
  SimTime ready_wait_ps_ = 0;

  // Cycle-profiler bookkeeping (only consulted when a profiler is attached
  // and NPR_OBS_ENABLED is defined; otherwise dead weight of 16 bytes).
  SimTime blocked_since_ = 0;
  WaitClass wait_class_ = WaitClass::kFifo;
};

// A single MicroEngine: one pipeline, four hardware contexts, round-robin
// dispatch among ready contexts with a 1-cycle swap bubble.
class MicroEngine {
 public:
  MicroEngine(EventQueue& engine, int id, int num_contexts, uint32_t ctx_switch_cycles);

  MicroEngine(const MicroEngine&) = delete;
  MicroEngine& operator=(const MicroEngine&) = delete;

  HwContext& context(int i) { return *contexts_[static_cast<size_t>(i)]; }
  int num_contexts() const { return static_cast<int>(contexts_.size()); }
  int id() const { return id_; }
  EventQueue& event_queue() { return engine_; }

  // Total pipeline-busy cycles (Compute) across all contexts.
  uint64_t busy_cycles() const { return busy_cycles_; }
  // Pipeline utilization over [window_start, now].
  double Utilization(SimTime window_start) const;

  // Attaches the cycle-accounting profiler (observability layer); nullptr
  // detaches. Attribution happens only when NPR_OBS_ENABLED is defined.
  void set_profiler(CycleProfiler* profiler) { profiler_ = profiler; }

 private:
  friend class HwContext;

  // Scheduling interface used by HwContext and its awaitables.
  void EnqueueReady(HwContext* ctx);
  void OnBlocked(HwContext* ctx);
  void OnComputeStart(HwContext* ctx, uint32_t cycles);
  void Dispatch();

  // The ready queue is a fixed ring: a context is enqueued at most once, so
  // capacity == num_contexts and push/pop are two index updates (this is
  // the engine's hottest path — every swap goes through it).
  HwContext* PopReady() {
    HwContext* ctx = ready_ring_[ready_head_];
    ready_head_ = (ready_head_ + 1) % ready_ring_.size();
    --ready_count_;
    return ctx;
  }

  EventQueue& engine_;
  const int id_;
  const uint32_t ctx_switch_cycles_;
  std::vector<std::unique_ptr<HwContext>> contexts_;
  HwContext* running_ = nullptr;
  std::vector<HwContext*> ready_ring_;
  size_t ready_head_ = 0;
  size_t ready_count_ = 0;
  bool dispatch_scheduled_ = false;
  uint64_t busy_cycles_ = 0;
  CycleProfiler* profiler_ = nullptr;
};

}  // namespace npr

#endif  // SRC_IXP_MICROENGINE_H_
