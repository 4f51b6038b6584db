#include "src/core/buffer_allocator.h"

namespace npr {

BufferStore::BufferStore(Policy policy, uint32_t dram_base, uint32_t buffer_bytes,
                         uint32_t num_buffers)
    : policy_(policy),
      dram_base_(dram_base),
      buffer_bytes_(buffer_bytes),
      num_buffers_(num_buffers),
      meta_(num_buffers) {
  if (explicit_lifetime()) {
    in_use_.assign(num_buffers, false);
    free_.reserve(num_buffers);
    for (uint32_t i = 0; i < num_buffers; ++i) {
      free_.push_back(num_buffers - 1 - i);
    }
  }
}

std::optional<uint32_t> BufferStore::Allocate(const BufferMeta& meta) {
  uint32_t index;
  if (explicit_lifetime()) {
    if (free_.empty()) {
      ++failures_;
      return std::nullopt;
    }
    index = free_.back();
    free_.pop_back();
    in_use_[index] = true;
  } else {
    index = next_;
    next_ = (next_ + 1) % num_buffers_;
  }
  ++allocations_;
  meta_[index] = meta;
  meta_[index].generation = allocations_;  // unique, monotonically increasing
  return dram_base_ + index * buffer_bytes_;
}

bool BufferStore::Valid(uint32_t addr, uint64_t generation) const {
  return explicit_lifetime() || meta_[IndexOf(addr)].generation == generation;
}

void BufferStore::Release(uint32_t addr) {
  if (!explicit_lifetime()) {
    return;
  }
  const uint32_t index = IndexOf(addr);
  if (!in_use_[index]) {
    ++double_releases_;
    return;
  }
  in_use_[index] = false;
  free_.push_back(index);
}

}  // namespace npr
