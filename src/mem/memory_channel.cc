#include "src/mem/memory_channel.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/fault/fault_injector.h"

namespace npr {

MemoryChannel::MemoryChannel(EventQueue& engine, MemoryChannelConfig config)
    : engine_(engine), config_(std::move(config)) {
  assert(config_.width_bytes > 0);
  assert(config_.bus_cycle_ps > 0);
}

SimTime MemoryChannel::Occupancy(uint32_t bytes) const {
  const uint32_t bus_cycles = (bytes + config_.width_bytes - 1) / config_.width_bytes;
  return static_cast<SimTime>(bus_cycles) * config_.bus_cycle_ps;
}

SimTime MemoryChannel::Issue(uint32_t bytes, bool is_write, EventFn done) {
  assert(bytes > 0);
  const SimTime now = engine_.now();
  const SimTime start = now + GrantWait(now);
  queue_wait_.Add(static_cast<uint64_t>(start - now));
  const SimTime occupancy = Occupancy(bytes);
  busy_until_ = start + occupancy;
  busy_accum_ += occupancy;
  SimTime done_at =
      busy_until_ + (is_write ? config_.write_latency_ps : config_.read_latency_ps);
  if (fault_ != nullptr) {
    // An injected spike holds the bus, so later accesses queue behind it —
    // one slow refresh stalls every context waiting on this channel.
    const SimTime spike = fault_->MemExtraLatencyPs();
    if (spike > 0) {
      busy_until_ += spike;
      busy_accum_ += spike;
      done_at += spike;
    }
  }

  if (is_write) {
    ++writes_;
  } else {
    ++reads_;
  }
  bytes_moved_ += bytes;

  if (done) {
    engine_.Schedule(done_at, std::move(done));
  }
  return done_at;
}

SimTime MemoryChannel::IssueBurst(uint32_t n, uint32_t bytes_each, bool is_write,
                                  EventFn done) {
  assert(n > 0);
  for (uint32_t i = 1; i < n; ++i) {
    Issue(bytes_each, is_write, EventFn());
  }
  return Issue(bytes_each, is_write, std::move(done));
}

SimTime MemoryChannel::PeekLatency(uint32_t bytes, bool is_write) const {
  return GrantWait(engine_.now()) + UnloadedLatency(bytes, is_write);
}

SimTime MemoryChannel::UnloadedLatency(uint32_t bytes, bool is_write) const {
  return Occupancy(bytes) + (is_write ? config_.write_latency_ps : config_.read_latency_ps);
}

double MemoryChannel::Utilization(SimTime window_start) const {
  const SimTime window = engine_.now() - window_start;
  if (window <= 0) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(busy_accum_) / static_cast<double>(window));
}

void MemoryChannel::ResetStats() {
  reads_ = 0;
  writes_ = 0;
  bytes_moved_ = 0;
  busy_accum_ = 0;
  queue_wait_.Reset();
}

}  // namespace npr
