// Packet buffer store in DRAM (§3.2.3).
//
// 16 MB of DRAM is divided into 8192 buffers of 2 KB (each large enough for
// a maximal 1518-octet frame). One store hands them out under one of two
// lifetime policies, fixed at construction:
//
//  * kRing (the paper's prototype): buffers are consumed circularly as
//    packets arrive and never released. A buffer is valid for one lap of
//    the ring; if the output side has not drained it by the time the ring
//    wraps around, the packet is silently overwritten ("effectively lost").
//    Valid() exposes that.
//  * kStackPool (the alternative the paper describes but chose not to
//    build): a stack of free buffers, so lifetime is explicit and no packet
//    can be overwritten, at an extra SRAM push/pop per packet (measured in
//    bench/ablation_design). Allocation can fail.
//
// Every caller uses the same four calls under both policies: Allocate,
// Valid, Release, MetaFor. Only the two §3.2.3 SRAM charges (the pop at
// start-of-packet, the push at TX-complete) read explicit_lifetime().

#ifndef SRC_CORE_BUFFER_ALLOCATOR_H_
#define SRC_CORE_BUFFER_ALLOCATOR_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/time.h"

namespace npr {

// Simulator-side sidecar metadata for the packet occupying a buffer (not
// hardware state; used for end-to-end verification and latency accounting).
struct BufferMeta {
  uint32_t packet_id = 0;
  uint8_t arrival_port = 0;
  SimTime ingress_time = 0;
  uint64_t generation = 0;  // allocation count when this buffer was issued
};

class BufferStore {
 public:
  enum class Policy { kRing, kStackPool };

  BufferStore(Policy policy, uint32_t dram_base, uint32_t buffer_bytes, uint32_t num_buffers);

  // Issues a buffer and stamps `meta` (with a fresh generation) on it.
  // Returns its DRAM byte address; nullopt only when the stack pool is
  // empty (the ring never fails: it overwrites the oldest buffer).
  std::optional<uint32_t> Allocate(const BufferMeta& meta);

  // True if the buffer at `addr` still holds the packet of `generation`:
  // false once the ring has lapped it. Always true under the stack pool.
  bool Valid(uint32_t addr, uint64_t generation) const;

  // Returns a buffer to the stack pool; a no-op on the ring, whose buffers
  // expire by being lapped. Releasing a buffer that is not in use is
  // counted (double_releases) and otherwise ignored.
  void Release(uint32_t addr);

  const BufferMeta& MetaFor(uint32_t addr) const { return meta_[IndexOf(addr)]; }

  // True under the stack pool: each allocation and release is an SRAM
  // pop/push that the pipeline must pay for (§3.2.3).
  bool explicit_lifetime() const { return policy_ == Policy::kStackPool; }

  uint64_t laps() const { return allocations_ / num_buffers_; }
  uint32_t free_count() const { return static_cast<uint32_t>(free_.size()); }
  uint64_t failed_allocations() const { return failures_; }
  uint64_t double_releases() const { return double_releases_; }

 private:
  uint32_t IndexOf(uint32_t addr) const {
    assert(addr >= dram_base_ && (addr - dram_base_) / buffer_bytes_ < num_buffers_);
    return (addr - dram_base_) / buffer_bytes_;
  }

  const Policy policy_;
  const uint32_t dram_base_;
  const uint32_t buffer_bytes_;
  const uint32_t num_buffers_;
  uint32_t next_ = 0;           // ring: next index in ring order
  std::vector<uint32_t> free_;  // stack pool: free buffer indexes
  std::vector<bool> in_use_;    // stack pool: the release ledger
  std::vector<BufferMeta> meta_;
  uint64_t allocations_ = 0;
  uint64_t failures_ = 0;
  uint64_t double_releases_ = 0;
};

}  // namespace npr

#endif  // SRC_CORE_BUFFER_ALLOCATOR_H_
