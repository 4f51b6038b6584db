#include "src/obs/observer.h"

#include <algorithm>
#include <bit>

namespace npr {

namespace {
// Bounds a collision cluster; beyond this the record is counted as an
// overflow rather than probed further (keeps Record strictly O(1)).
constexpr size_t kMaxProbes = 128;

constexpr uint64_t kPsPerNsLocal = 1000;
}  // namespace

const char* PathKindName(PathKind p) {
  switch (p) {
    case PathKind::kPathA: return "A";
    case PathKind::kPathB: return "B";
    case PathKind::kPathC: return "C";
    case PathKind::kCount: break;
  }
  return "?";
}

const char* HopKindName(HopKind h) {
  switch (h) {
    case HopKind::kInput: return "input";
    case HopKind::kQueueWait: return "queue_wait";
    case HopKind::kOutput: return "output";
    case HopKind::kSaService: return "sa_service";
    case HopKind::kPeService: return "pe_service";
    case HopKind::kCount: break;
  }
  return "?";
}

Observer::Observer(EventQueue& engine, ObserverConfig cfg)
    : engine_(engine), recorder_(cfg.ring_capacity) {
  capture_reserve_ = cfg.capture_reserve;
  capture_.reserve(capture_reserve_);
  const size_t slots = std::bit_ceil(std::max<size_t>(cfg.tracker_slots, 64));
  tracker_.resize(slots);
  tracker_mask_ = slots - 1;
}

void Observer::Record(SpanPoint point, uint32_t packet_id, uint8_t unit, uint16_t arg) {
  const uint64_t now = static_cast<uint64_t>(engine_.now());
  SpanRecord r;
  r.t_ps = now;
  r.packet_id = packet_id;
  r.point = static_cast<uint8_t>(point);
  r.unit = unit;
  r.arg = arg;

  ++records_;
  ++point_counts_[static_cast<int>(point)];
  recorder_.Record(r);
  if (capture_reserve_ > 0) {
    if (capture_.size() < capture_reserve_) {
      capture_.push_back(r);
    } else {
      capture_truncated_ = true;
    }
  }
  UpdateTrack(point, packet_id, now);
}

size_t Observer::Home(uint32_t packet_id) const {
  // Packet ids carry structure in their high bits (TrafficGen ids are
  // port << 24 | seq), so masking the raw id would stack every port's
  // chains onto one probe cluster. The murmur3 fmix32 finalizer spreads
  // every input bit over the slot index first.
  uint32_t h = packet_id;
  h ^= h >> 16;
  h *= 0x85ebca6bU;
  h ^= h >> 13;
  h *= 0xc2b2ae35U;
  h ^= h >> 16;
  return h & tracker_mask_;
}

Observer::Track* Observer::Find(uint32_t packet_id) {
  size_t i = Home(packet_id);
  for (size_t probes = 0; probes < kMaxProbes; ++probes) {
    Track& t = tracker_[i];
    if (!t.used) return nullptr;
    if (t.packet_id == packet_id) return &t;
    i = (i + 1) & tracker_mask_;
  }
  return nullptr;
}

Observer::Track* Observer::FindOrCreate(uint32_t packet_id) {
  size_t i = Home(packet_id);
  for (size_t probes = 0; probes < kMaxProbes; ++probes) {
    Track& t = tracker_[i];
    if (!t.used) {
      t = Track{};
      t.used = true;
      t.packet_id = packet_id;
      ++tracker_live_;
      return &t;
    }
    if (t.packet_id == packet_id) return &t;
    i = (i + 1) & tracker_mask_;
  }
  ++tracker_overflows_;
  return nullptr;
}

void Observer::Erase(Track* t) {
  // Linear-probe deletion with backward shift: keeps clusters contiguous so
  // Find never crosses a hole it should not.
  size_t i = static_cast<size_t>(t - tracker_.data());
  tracker_[i].used = false;
  --tracker_live_;
  size_t j = i;
  for (;;) {
    j = (j + 1) & tracker_mask_;
    Track& cand = tracker_[j];
    if (!cand.used) return;
    const size_t home = Home(cand.packet_id);
    // Move cand into the hole at i unless its home lies cyclically in (i, j].
    const bool home_in_range =
        (i < j) ? (home > i && home <= j) : (home > i || home <= j);
    if (!home_in_range) {
      tracker_[i] = cand;
      cand.used = false;
      i = j;
    }
  }
}

void Observer::UpdateTrack(SpanPoint point, uint32_t packet_id, uint64_t now) {
  // Chains open at a source (kPktIngress is RouterInvariants' ingress
  // accounting point). Lap records carry the successor's id, so erasing on
  // them would break a live chain; they skip the tracker like pre-ingress
  // drops (no chain) and untracked records.
  const SpanPointInfo& info = kSpanPoints[static_cast<int>(point)];
  if (info.role == SpanRole::kUntracked || info.role == SpanRole::kPreIngressTerminal ||
      info.role == SpanRole::kLapTerminal) {
    return;
  }
  if (packet_id == 0) return;

  if (info.role == SpanRole::kSource) {
    Track* t = FindOrCreate(packet_id);
    if (t == nullptr) return;
    t->path = static_cast<uint8_t>(info.path);
    t->ingress_ps = now;
    t->mark_ps = now;
    return;
  }

  Track* t = Find(packet_id);
  if (t == nullptr) return;  // chain started before attach, or already closed

  if (info.path != PathKind::kCount) {
    t->path = std::max(t->path, static_cast<uint8_t>(info.path));
  }
  if (info.hop != kNoHop && now >= t->mark_ps) {
    hop_latency_[static_cast<int>(info.hop)].Add((now - t->mark_ps) / kPsPerNsLocal);
    t->mark_ps = now;
  }

  if (point == SpanPoint::kPktTxComplete && now >= t->ingress_ps) {
    path_latency_[t->path].Add((now - t->ingress_ps) / kPsPerNsLocal);
  }

  if (info.role == SpanRole::kErasingTerminal) Erase(t);
}

}  // namespace npr
