#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>

#include "bench/bench_util.h"
#include "src/cluster/cluster_router.h"
#include "src/core/overload.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/health/health_monitor.h"
#include "src/net/traffic_gen.h"
#include "src/obs/observer.h"
#include "src/route/route_loader.h"
#include "src/sim/random.h"
#include "src/vrp/interpreter.h"

namespace perfbench {

using npr::SimTime;

const std::vector<WorkloadInfo>& AllWorkloads() {
  static const std::vector<WorkloadInfo> all = {
      // Episodes of 2 ms warm-up + 10 ms, the bench/table1_queueing
      // measurement. In this calibration O.1 is slightly slower than I.2,
      // so with infinitely fast ports the queues fill after ~20 ms, the
      // circular buffer laps, and a long run settles near 3.22 Mpps with
      // ~9% of MPs lost: a different scenario from the Table 1 row.
      {"fifo_min",
       "section 3.5.1 fastest feasible system: 64 B MPs on infinitely fast ports, "
       "per-packet cost in sim/mem/ixp/core dominates",
       120.0, npr::kPsPerUs, 2 * npr::kPsPerMs, 0, 10 * npr::kPsPerMs, false},
      {"linerate_mix",
       "real MAC ports at line rate, 64/594/1518 B mix, Zipf flows over 4000 prefixes, "
       "paths B and C, VRP installs",
       80.0, npr::kPsPerUs, 4 * npr::kPsPerMs, 5 * npr::kPsPerMs, 0, false},
      {"cluster8",
       "8-node sharded ClusterRouter: host time set by the 2 us lookahead windows (merge, hub "
       "and shard phases), which no other workload enters",
       26.0, 2 * npr::kPsPerUs, 2 * npr::kPsPerMs, 2 * npr::kPsPerMs, 0, true},
      {"overload_chaos",
       "min-size flood plus conforming load under OverloadChaos faults: governor, "
       "drop paths and fault/health ticks",
       110.0, npr::kPsPerUs, 2 * npr::kPsPerMs, 10 * npr::kPsPerMs, 0, false},
  };
  return all;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : AllWorkloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Plan MakePlan(const WorkloadInfo& info, double seconds, int block_slices, int blocks) {
  Plan plan;
  plan.warmup_ps = info.warmup_ps;
  plan.drain_ps = info.drain_ps;
  plan.blocks = blocks;
  const int wanted = block_slices * blocks;
  const double window = seconds * info.sim_ms_per_run_s * static_cast<double>(npr::kPsPerMs);
  auto quantized = [&info](double ps) {
    return std::max<SimTime>(1, static_cast<SimTime>(ps / static_cast<double>(info.quantum_ps))) *
           info.quantum_ps;
  };
  if (info.episode_ps > 0) {
    const int episodes = std::max(
        1, static_cast<int>(std::lround(window / static_cast<double>(info.episode_ps))));
    plan.episode_slices = (wanted + episodes - 1) / episodes;
    plan.slices = plan.episode_slices * episodes;
    plan.slice_ps = quantized(static_cast<double>(info.episode_ps) / plan.episode_slices);
  } else {
    plan.slices = wanted;
    plan.slice_ps = quantized(window / wanted);
  }
  return plan;
}

namespace {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- counters ---------------------------------------------------------------

void AddRouter(npr::Router& r, Counters* c) {
  const npr::RouterStats& s = r.stats();
  npr::MemorySystem& mem = r.chip().memory();
  const SimTime now = r.engine().now();
  c->forwarded += s.forwarded;
  c->dram_ops += mem.dram().reads() + mem.dram().writes();
  c->sram_ops += mem.sram().reads() + mem.sram().writes();
  c->scratch_ops += mem.scratch().reads() + mem.scratch().writes();
  // Utilization(0) is busy time over the whole run; times `now` it is the
  // busy total, whose difference across the window is the window's.
  c->dram_busy_ps += mem.dram().Utilization(0) * static_cast<double>(now);
  c->sram_busy_ps += mem.sram().Utilization(0) * static_cast<double>(now);
  c->pci_busy_ps += r.host().pci().Utilization(0) * static_cast<double>(now);

  for (int i = 0; i < r.chip().num_mes(); ++i) {
    npr::MicroEngine& me = r.chip().me(i);
    c->me_busy_cycles += me.busy_cycles();
    for (int k = 0; k < me.num_contexts(); ++k) {
      c->ready_wait_ps += static_cast<uint64_t>(me.context(k).ready_wait_ps());
    }
  }
  c->token_idle_ps += static_cast<uint64_t>(r.input_stage().token_ring().idle_ps() +
                                            r.output_stage().token_ring().idle_ps());
  std::set<npr::HwMutex*> mutexes;
  uint64_t queue_drops = r.sa_local_queue().drops() + r.sa_pentium_queue().drops();
  for (const auto& q : r.queues().all_queues()) {
    queue_drops += q->drops();
    if (npr::HwMutex* m = r.queues().MutexFor(*q)) {
      mutexes.insert(m);
    }
  }
  for (npr::HwMutex* m : mutexes) {
    c->mutex_acquires += m->acquires();
    c->mutex_contended += m->contended_acquires();
  }
  c->queue_drops += queue_drops;
  c->sa_busy_cycles += r.chip().strongarm().busy_cycles();
  c->pe_busy_cycles += r.host().pentium().busy_cycles();

  uint64_t mac_drops = 0;
  c->pool_acquires += r.packet_pool().acquires();
  c->pool_exhausted += r.packet_pool().exhausted();
  for (int p = 0; p < r.num_ports(); ++p) {
    const npr::MacPort& port = r.port(p);
    c->pool_acquires += port.pool().acquires();
    c->pool_exhausted += port.pool().exhausted() + port.rx_pool_exhausted();
    c->rx_offered += port.rx_offered();
    mac_drops += port.rx_dropped() + port.rx_crc_dropped() + port.gov_red_dropped() +
                 port.gov_policed() + port.gov_quenched() + port.rx_pool_exhausted();
  }
  c->rx_dropped += mac_drops;
  // Every way a packet leaves: RouterInvariants' conservation sinks plus the
  // MAC-level and buffer drops that happen before ingress accounting.
  c->dispositioned += s.forwarded + s.dropped_invalid + s.dropped_by_vrp +
                      s.dropped_queue_full + s.lost_overwritten + s.sa_lapped + s.sa_absorbed +
                      s.pe_absorbed + s.pkts_shed_degraded + s.gov_shed_pe + s.gov_shed_sa +
                      s.dropped_no_buffer + mac_drops;

  c->input_packets += s.input.packets;
  c->exceptional += s.exceptional;
  c->to_pentium += s.to_pentium;
  c->in_reg_cycles += s.input.reg_cycles;
  c->in_mps += s.input.mps;
  c->out_reg_cycles += s.output.reg_cycles;
  c->out_mps += s.output.mps;
  c->out_idle_iters += s.output_idle_iters;
  c->cache_hits += r.route_cache().hits();
  c->cache_misses += r.route_cache().misses();
  c->vrp_traps += s.vrp_traps;
  c->gov_escalations += s.gov_escalations;
  c->gov_shed += s.gov_red_dropped + s.gov_policed + s.gov_quenched + s.gov_shed_pe + s.gov_shed_sa;
  c->fault_injected += r.fault_injector() != nullptr ? r.fault_injector()->total_injected() : 0;
  c->ctrl_retries += s.ctrl_retries;
}

void AddLevels(npr::Router& r, Levels* l) {
  npr::MemorySystem& mem = r.chip().memory();
  l->pool_high_water += r.packet_pool().high_water();
  for (int p = 0; p < r.num_ports(); ++p) {
    l->pool_high_water += r.port(p).pool().high_water();
  }
  for (const auto& q : r.queues().all_queues()) {
    l->queue_max_depth = std::max<uint64_t>(l->queue_max_depth, q->max_depth());
  }
  // Histogram percentiles are in ps (power-of-two bucket midpoints).
  l->dram_wait_ns_p99 = std::max(l->dram_wait_ns_p99, mem.dram().queue_wait().Percentile(99) / 1e3);
  l->sram_wait_ns_p99 = std::max(l->sram_wait_ns_p99, mem.sram().queue_wait().Percentile(99) / 1e3);
  l->mes += r.chip().num_mes();
  l->token_rings += 2;
  l->routers += 1;
}

// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

void AddStage(const npr::StageStats& s, Fnv* f) {
  for (uint64_t v : {s.mps, s.packets, s.reg_cycles, s.sram_reads, s.sram_writes, s.dram_reads,
                     s.dram_writes, s.scratch_reads, s.scratch_writes, s.mutex_ops}) {
    f->Add(v);
  }
}

void AddChannel(const npr::MemoryChannel& ch, Fnv* f) {
  f->Add(ch.reads());
  f->Add(ch.writes());
  f->Add(ch.bytes_moved());
}

void DigestRouter(npr::Router& r, Fnv* f) {
  const npr::RouterStats& s = r.stats();
  AddStage(s.input, f);
  AddStage(s.output, f);
  for (uint64_t v :
       {s.forwarded, s.dropped_invalid, s.dropped_by_vrp, s.dropped_queue_full,
        s.lost_overwritten, s.dropped_no_buffer, s.vrp_traps, s.output_idle_iters,
        s.output_lost_iters, s.exceptional, s.to_pentium, s.sa_local_processed,
        s.icmp_generated, s.pentium_processed, s.sa_lapped, s.sa_absorbed, s.pe_absorbed,
        s.icmp_originated, s.context_crashes, s.context_restarts, s.watchdog_fired,
        s.tokens_regenerated, s.forwarders_quarantined, s.ctrl_retries, s.ctrl_timeouts,
        s.pkts_shed_degraded, s.gov_red_dropped, s.gov_policed, s.gov_quenched, s.gov_shed_pe,
        s.gov_shed_sa, s.gov_escalations, s.upgrades_started, s.upgrades_promoted,
        s.upgrade_rollbacks, s.upgrade_aborts, s.upgrade_divergences,
        s.upgrade_checksum_rejects, s.spf_recomputes, s.routes_withdrawn, s.lsas_reflooded,
        s.latency_ns.count(), s.latency_ns.min(), s.latency_ns.max()}) {
    f->Add(v);
  }
  f->AddDouble(s.latency_ns.mean());
  npr::MemorySystem& mem = r.chip().memory();
  AddChannel(mem.dram(), f);
  AddChannel(mem.sram(), f);
  AddChannel(mem.scratch(), f);
  AddChannel(r.chip().ix_bus(), f);
  AddChannel(r.host().pci(), f);
}

// --- traffic ----------------------------------------------------------------

SimTime WireTimePs(size_t frame_bytes, double bits_per_sec) {
  return static_cast<SimTime>(static_cast<double>(frame_bytes + npr::kEthWireOverheadBytes) *
                              8.0 * static_cast<double>(npr::kPsPerSec) / bits_per_sec);
}

// Open-loop source on one port: the next frame is due a fixed gap, or one
// wire time at `load` of line rate, after the previous one, whatever the
// router does. Frames are built in place in the port's packet pool (no
// per-packet heap allocation) and carry id = prefix << 24 | seq, so a sink
// can find each frame's send time.
class Pump {
 public:
  using Chooser = std::function<void(npr::Rng&, npr::PacketSpec&)>;

  Pump(npr::EventQueue& engine, npr::MacPort& port, uint32_t prefix, uint64_t seed,
       SimTime stop_at, SimTime fixed_gap_ps, double load, Chooser choose)
      : engine_(engine),
        port_(port),
        prefix_(prefix),
        rng_(seed),
        stop_at_(stop_at),
        fixed_gap_ps_(fixed_gap_ps),
        load_(load),
        choose_(std::move(choose)),
        sent_(kSentSlots) {}
  Pump(const Pump&) = delete;
  Pump& operator=(const Pump&) = delete;

  void Start() { Tick(); }

  uint64_t offered() const { return offered_; }
  uint32_t prefix() const { return prefix_; }
  // Send time of frame `seq`, or -1 if it was never sent or its slot has
  // been reused (a frame older than kSentSlots sends). In cluster8 this is
  // read by other shards' sinks: the slot was written in an earlier window
  // (the fabric latency is one window) and is not rewritten for another
  // kSentSlots frames.
  SimTime SentAt(uint32_t seq) const {
    const Sent& s = sent_[seq & (kSentSlots - 1)];
    return s.seq == seq ? s.at : -1;
  }

 private:
  static constexpr uint32_t kSentSlots = 1 << 16;
  struct Sent {
    uint32_t seq = 0;
    SimTime at = -1;
  };

  static void TickThunk(void* self) { static_cast<Pump*>(self)->Tick(); }

  void Tick() {
    const SimTime now = engine_.now();
    if (now >= stop_at_) {
      return;
    }
    choose_(rng_, spec_);
    const size_t frame_bytes = npr::ClampedFrameBytes(spec_);
    ++offered_;
    const uint32_t seq = ++seq_;
    if (seq > 0xffffff) {
      std::fprintf(stderr, "perfbench: pump %u outran its 24-bit id space\n", prefix_);
      std::abort();
    }
    npr::FrameBuf* buf = port_.pool().TryAcquire(static_cast<uint32_t>(frame_bytes));
    if (buf == nullptr) {
      port_.CountRxPoolExhausted();
    } else {
      std::memset(buf->data(), 0, frame_bytes);
      npr::BuildFrameInto(spec_, std::span<uint8_t>(buf->data(), frame_bytes));
      npr::Packet packet = npr::Packet::Adopt(buf);
      packet.set_id(prefix_ << 24 | seq);
      packet.set_arrival_port(port_.id());
      packet.set_created(now);
      sent_[seq & (kSentSlots - 1)] = Sent{seq, now};
      port_.InjectFromWire(std::move(packet));
    }
    const SimTime gap =
        fixed_gap_ps_ > 0
            ? fixed_gap_ps_
            : static_cast<SimTime>(
                  static_cast<double>(WireTimePs(frame_bytes, port_.bits_per_sec())) / load_);
    engine_.ScheduleRaw(now + gap, &Pump::TickThunk, this);
  }

  npr::EventQueue& engine_;
  npr::MacPort& port_;
  const uint32_t prefix_;
  npr::Rng rng_;
  const SimTime stop_at_;
  const SimTime fixed_gap_ps_;
  const double load_;
  Chooser choose_;
  npr::PacketSpec spec_;
  std::vector<Sent> sent_;
  uint32_t seq_ = 0;
  uint64_t offered_ = 0;
};

// Delivered-frame accounting for one router (one shard in cluster8).
// Frames from a registered pump count as delivered and, inside the window,
// contribute a wire-to-wire latency sample; frames from other sources (the
// overload flood) are only counted as foreign.
struct SinkTally {
  const std::vector<const Pump*>* pumps = nullptr;  // by id prefix
  SimTime window_lo = 0;
  SimTime window_hi = 0;
  uint64_t delivered = 0;
  uint64_t foreign = 0;
  uint64_t unknown = 0;  // registered prefix, but no such frame on record
  std::vector<double> latency_us;

  void OnFrame(const npr::Packet& p, SimTime now) {
    const uint32_t prefix = p.id() >> 24;
    const Pump* pump = prefix < pumps->size() ? (*pumps)[prefix] : nullptr;
    if (pump == nullptr) {
      ++foreign;
      return;
    }
    const SimTime sent = pump->SentAt(p.id() & 0xffffff);
    if (sent < 0) {
      ++unknown;
      return;
    }
    ++delivered;
    if (now >= window_lo && now < window_hi) {
      latency_us.push_back(static_cast<double>(now - sent) / static_cast<double>(npr::kPsPerUs));
    }
  }
};

void LatencyFromSamples(std::vector<const SinkTally*> tallies, double* p50, double* p99) {
  std::vector<double> all;
  for (const SinkTally* t : tallies) {
    all.insert(all.end(), t->latency_us.begin(), t->latency_us.end());
  }
  *p50 = Percentile(all, 50);
  *p99 = Percentile(all, 99);
}

void CheckInvariants(const npr::InvariantReport& report, std::vector<std::string>* failures) {
  if (!report.ok()) {
    failures->push_back("RouterInvariants: " + report.ToString());
  }
}

// Host cost of the per-packet layer calls, replayed on a workload's own
// inputs in batches of one span each: route lookups of its destinations
// against its loaded table, and VRP runs of its installed programs on the
// first MP of its packets (a standalone interpreter, so the router's flow
// state is untouched).
volatile uint64_t g_replay_sink = 0;  // keeps the replayed calls observable

ReplayCounts ReplayCalls(const npr::RouteTable& table, const std::vector<uint32_t>& dsts,
                         const std::vector<const npr::VrpProgram*>& programs,
                         const std::vector<npr::PacketSpec>& specs, SpanTrace* trace) {
  // Each batch makes at least kCallsPerBatch calls, so a span is long
  // against the two clock reads that bound it.
  constexpr int kBatches = 50;
  constexpr size_t kCallsPerBatch = 4096;
  auto reps = [](size_t n) { return n == 0 ? 0 : (kCallsPerBatch + n - 1) / n; };
  uint64_t sink = 0;
  const size_t lookup_reps = reps(dsts.size());
  for (int batch = 0; batch < kBatches; ++batch) {
    ScopedSpan span(trace, "replay.route_lookup");
    for (size_t r = 0; r < lookup_reps; ++r) {
      for (uint32_t dst : dsts) {
        sink += table.Lookup(dst).entry.has_value() ? 1 : 0;
      }
    }
  }
  std::vector<std::array<uint8_t, 64>> mps;
  for (const npr::PacketSpec& spec : specs) {
    const npr::Packet pkt = npr::BuildPacket(spec);
    std::array<uint8_t, 64> mp{};
    std::copy_n(pkt.bytes().begin(), std::min<size_t>(64, pkt.bytes().size()), mp.begin());
    mps.push_back(mp);
  }
  npr::BackingStore sram("replay-sram", 1 << 16);
  npr::HashUnit hash;
  npr::VrpInterpreter vrp(sram, hash);
  const size_t run_reps = reps(mps.size() * programs.size());
  for (int batch = 0; batch < kBatches; ++batch) {
    ScopedSpan span(trace, "replay.vrp_run");
    for (size_t r = 0; r < run_reps; ++r) {
      for (const npr::VrpProgram* prog : programs) {
        for (auto mp : mps) {  // a fresh copy per run: programs rewrite the MP
          sink += static_cast<uint64_t>(vrp.Run(*prog, mp, 0).action);
        }
      }
    }
  }
  g_replay_sink = sink;
  return {dsts.size() * lookup_reps, mps.size() * programs.size() * run_reps};
}

// --- single-router base -------------------------------------------------------

class SingleRouter : public Workload {
 public:
  SingleRouter(const Plan& plan, const Options& options) : plan_(plan), opts_(options) {}
  ~SingleRouter() override {
    if (router_ != nullptr) {
      router_->SetObserver(nullptr);
    }
  }

  void Advance(SimTime dt) override { router_->RunFor(dt); }

  Counters Read() override {
    Counters c;
    c.now = router_->engine().now();
    c.events = router_->engine().events_run();
    c.allocs = npr::bench::AllocCount();
    AddRouter(*router_, &c);
    AddExtra(&c);
    return c;
  }

  Levels ReadLevels() override {
    Levels l;
    AddLevels(*router_, &l);
    return l;
  }

  void Drain() override { router_->RunFor(plan_.drain_ps); }

  uint64_t Digest() override {
    Fnv f;
    DigestRouter(*router_, &f);
    f.Add(router_->engine().events_run());
    return f.value();
  }

  uint64_t ObserverRecords() override { return observer_ ? observer_->records() : 0; }

 protected:
  virtual void AddExtra(Counters* c) { (void)c; }

  // Construction under its span, with the observer attached right away.
  void Construct(npr::RouterConfig cfg) {
    ScopedSpan span(opts_.trace, "construct");
    router_ = std::make_unique<npr::Router>(std::move(cfg));
    if (opts_.trace != nullptr) {
      observer_ = std::make_unique<npr::Observer>(router_->engine());
      router_->SetObserver(observer_.get());
    }
  }

  void InstallOrFail(const npr::InstallRequest& req, const char* what) {
    ScopedSpan span(opts_.trace, "install");
    const npr::InstallOutcome out = router_->Install(req);
    if (!out.ok) {
      setup_errors_.push_back(std::string("install ") + what + " refused: " + out.error);
    }
  }

  void Warmup() {
    ScopedSpan span(opts_.trace, "warmup");
    router_->RunFor(plan_.warmup_ps);
  }

  // `expected_pps`: pump frames delivered per simulated second, to size the
  // window's latency samples up front.
  void ConnectSinks(double expected_pps) {
    tally_.pumps = &pumps_by_prefix_;
    tally_.window_lo = plan_.warmup_ps;
    tally_.window_hi = plan_.sources_stop_ps();
    tally_.latency_us.reserve(static_cast<size_t>(
        1.3 * expected_pps * static_cast<double>(plan_.instance_window_ps()) / npr::kPsPerSec) +
        16);
    for (int p = 0; p < router_->num_ports(); ++p) {
      router_->port(p).SetSink([this](npr::Packet&& pkt) {
        tally_.OnFrame(pkt, router_->engine().now());
      });
    }
  }

  void Register(Pump* pump) {
    if (pumps_by_prefix_.size() <= pump->prefix()) {
      pumps_by_prefix_.resize(pump->prefix() + 1, nullptr);
    }
    pumps_by_prefix_[pump->prefix()] = pump;
  }

  uint64_t PumpsOffered() const {
    uint64_t n = 0;
    for (const auto& p : pumps_) {
      n += p->offered();
    }
    return n;
  }

  void CheckCommon(std::vector<std::string>* failures) {
    failures->insert(failures->end(), setup_errors_.begin(), setup_errors_.end());
    CheckInvariants(npr::RouterInvariants::CheckAll(*router_), failures);
    if (tally_.unknown != 0) {
      failures->push_back("sinks saw " + std::to_string(tally_.unknown) +
                          " frames whose send time no pump has on record");
    }
  }

  const Plan plan_;
  const Options opts_;
  std::unique_ptr<npr::Router> router_;
  std::unique_ptr<npr::Observer> observer_;
  std::vector<std::unique_ptr<Pump>> pumps_;
  std::vector<const Pump*> pumps_by_prefix_;
  SinkTally tally_;
  std::vector<std::string> setup_errors_;
};

// --- fifo_min -----------------------------------------------------------------

class FifoMin : public SingleRouter {
 public:
  using SingleRouter::SingleRouter;

  void Setup() override {
    ScopedSpan span(opts_.trace, "setup");
    Construct(npr::bench::InfiniteFifoConfig());
    {
      ScopedSpan load(opts_.trace, "route_load");
      npr::bench::AddDefaultRoutes(*router_);  // 10.<p>/16 -> p, warm cache
    }
    {
      ScopedSpan start(opts_.trace, "start");
      router_->Start();
    }
    Warmup();
    open_ = Read();
  }

  void Check(std::vector<std::string>* failures) override {
    CheckCommon(failures);
    // EXPERIMENTS.md Table 1, fastest feasible system (I.2 + O.1): paper
    // 3.47 Mpps, measured 3.423; "within a few percent" is the band.
    const double mpps = WindowMpps();
    if (std::fabs(mpps - 3.47) / 3.47 > 0.05) {
      failures->push_back("fifo_min sim_mpps " + std::to_string(mpps) +
                          " outside Table 1 band 3.47 Mpps +/-5%");
    }
  }

  // No wire and no sources: the input stage makes its own MPs.
  bool has_sources() const override { return false; }

  void Drain() override { close_ = Read(); }

  void SimLatencyUs(double* p50, double* p99) override {
    // No ports, hence no sink: the router's own ingress-to-transmit
    // histogram (power-of-two buckets, reported at bucket midpoints).
    *p50 = router_->stats().latency_ns.Percentile(50) / 1e3;
    *p99 = router_->stats().latency_ns.Percentile(99) / 1e3;
  }

 private:
  double WindowMpps() const {
    const double secs = static_cast<double>(close_.now - open_.now) / npr::kPsPerSec;
    return secs > 0 ? static_cast<double>(close_.forwarded - open_.forwarded) / secs / 1e6 : 0;
  }

  Counters open_;
  Counters close_;
};

// --- linerate_mix -------------------------------------------------------------

class LineRateMix : public SingleRouter {
 public:
  LineRateMix(const Inputs& in, const Plan& plan, const Options& options)
      : SingleRouter(plan, options), in_(in.linerate) {}

  void Setup() override {
    ScopedSpan span(opts_.trace, "setup");
    npr::RouterConfig cfg;
    cfg.port_rates_bps = std::vector<double>(8, 100e6);
    cfg.port_rates_bps.push_back(1e9);
    cfg.port_rates_bps.push_back(1e9);
    cfg.classifier = npr::ClassifierMode::kFlowTable;
    Construct(std::move(cfg));
    {
      ScopedSpan load(opts_.trace, "route_load");
      const npr::RouteLoadResult loaded =
          npr::LoadRoutesFromString(in_.routes_text, router_->route_table());
      if (!loaded.ok) {
        setup_errors_.push_back("route load failed: " + loaded.error);
      }
    }
    router_->SetExceptionHandler(std::make_unique<npr::FullIpForwarder>());

    syn_monitor_ = npr::BuildSynMonitor();
    dscp_tagger_ = npr::BuildDscpTagger();
    npr::InstallRequest all;
    all.key = npr::FlowKey::All();
    all.where = npr::Where::kMicroEngine;
    all.program = &syn_monitor_;
    InstallOrFail(all, "syn-monitor");
    for (auto [port, idx] : in_.vrp_flows) {
      npr::InstallRequest req;
      req.key = KeyOf(Flow(port, idx));
      req.where = npr::Where::kMicroEngine;
      req.program = &dscp_tagger_;
      InstallOrFail(req, "dscp-tagger");
    }
    const int pe_index =
        router_->pe_forwarders().Register(std::make_unique<npr::NullForwarder>());
    for (auto [port, idx] : in_.pentium_flows) {
      npr::InstallRequest req;
      req.key = KeyOf(Flow(port, idx));
      req.where = npr::Where::kPentium;
      req.native_index = pe_index;
      req.expected_pps = 5e3;
      req.expected_cpp = 150;
      InstallOrFail(req, "pentium null forwarder");
    }

    ConnectSinks(500e3);
    {
      ScopedSpan start(opts_.trace, "start");
      router_->Start();
    }
    for (int port = 0; port < kMixPorts; ++port) {
      const double load = port < 8 ? kLoad100M : kLoad1G;
      auto zipf = std::make_shared<npr::ZipfDistribution>(static_cast<size_t>(kMixFlowsPerPort),
                                                           1.0);
      const std::vector<MixFlow>* flows = &in_.flows[static_cast<size_t>(port)];
      const uint8_t port_id = static_cast<uint8_t>(port);
      auto choose = [zipf, flows, port_id](npr::Rng& rng, npr::PacketSpec& spec) {
        const MixFlow& f = (*flows)[zipf->Sample(rng)];
        spec.eth_src = npr::PortMac(port_id);
        spec.eth_dst = npr::PortMac(0xfe);
        spec.src_ip = f.src_ip;
        spec.dst_ip = f.dst_ip;
        spec.src_port = f.src_port;
        spec.dst_port = f.dst_port;
        spec.protocol = f.protocol;
        spec.tcp_flags = rng.Chance(0.02) ? 0x02 : 0x10;
        // 64/594/1518 B in the 7:4:1 proportions of the simple IMIX.
        const uint64_t r = rng.Uniform(12);
        spec.frame_bytes = r < 7 ? 64 : (r < 11 ? 594 : 1518);
        if (rng.Chance(kExceptionalShare)) {
          spec.ip_options.assign({0x01, 0x01, 0x01, 0x00});  // NOPs + end: path B
        } else {
          spec.ip_options.clear();
        }
      };
      pumps_.push_back(std::make_unique<Pump>(
          router_->engine(), router_->port(port), static_cast<uint32_t>(port),
          in_.port_seeds[static_cast<size_t>(port)], plan_.sources_stop_ps(), 0, load, choose));
      Register(pumps_.back().get());
    }
    for (auto& p : pumps_) {
      p->Start();
    }
    Warmup();
  }

  void Check(std::vector<std::string>* failures) override {
    CheckCommon(failures);
    if (tally_.foreign != 0) {
      failures->push_back("linerate_mix sinks saw " + std::to_string(tally_.foreign) +
                          " frames from no pump");
    }
    if (delivered() != offered()) {
      failures->push_back("linerate_mix conforming loss: offered " + std::to_string(offered()) +
                          ", delivered " + std::to_string(delivered()));
    }
  }

  uint64_t offered() const override { return PumpsOffered(); }
  uint64_t delivered() const override { return tally_.delivered; }

  void SimLatencyUs(double* p50, double* p99) override {
    LatencyFromSamples({&tally_}, p50, p99);
  }

  ReplayCounts ReplayLayers(SpanTrace* trace) override {
    std::vector<uint32_t> dsts;
    std::vector<npr::PacketSpec> specs;
    for (const auto& port_flows : in_.flows) {
      for (size_t i = 0; i < port_flows.size(); ++i) {
        const MixFlow& f = port_flows[i];
        dsts.push_back(f.dst_ip);
        if (i % 25 == 0) {
          npr::PacketSpec spec;
          spec.src_ip = f.src_ip;
          spec.dst_ip = f.dst_ip;
          spec.src_port = f.src_port;
          spec.dst_port = f.dst_port;
          spec.protocol = f.protocol;
          spec.tcp_flags = i % 50 == 0 ? 0x02 : 0x10;
          specs.push_back(spec);
        }
      }
    }
    return ReplayCalls(router_->route_table(), dsts, {&syn_monitor_, &dscp_tagger_}, specs, trace);
  }

 private:
  // 95% of line rate on the 100 Mbps ports (the paper's 141 Kpps of 148.8
  // at 64 B). The gigabit ports run at 8%: each is served by one input
  // context (context r serves port r % 10), which keeps up with ~200 K MPs/s,
  // and the mix averages ~5.9 MPs per frame.
  static constexpr double kLoad100M = 0.95;
  static constexpr double kLoad1G = 0.08;
  static constexpr double kExceptionalShare = 0.05;

  const MixFlow& Flow(int port, int idx) const {
    return in_.flows[static_cast<size_t>(port)][static_cast<size_t>(idx)];
  }
  static npr::FlowKey KeyOf(const MixFlow& f) {
    return npr::FlowKey::Tuple(f.src_ip, f.dst_ip, f.src_port, f.dst_port);
  }

  const LineRateInputs& in_;
  npr::VrpProgram syn_monitor_;
  npr::VrpProgram dscp_tagger_;
};

// --- overload_chaos -----------------------------------------------------------

class OverloadChaos : public SingleRouter {
 public:
  OverloadChaos(const Inputs& in, const Plan& plan, const Options& options)
      : SingleRouter(plan, options), in_(in) {}

  ~OverloadChaos() override {
    gens_.clear();
    health_.reset();
    governor_.reset();
  }

  void Setup() override {
    ScopedSpan span(opts_.trace, "setup");
    npr::RouterConfig cfg;
    cfg.port_rates_bps = std::vector<double>(8, 1e9);
    cfg.fault_plan = npr::FaultPlan::OverloadChaos(in_.fault_seed);
    Construct(std::move(cfg));
    {
      ScopedSpan load(opts_.trace, "route_load");
      npr::bench::AddDefaultRoutes(*router_);
      router_->WarmRouteCache(32);
    }
    // One VRP extension on every packet: the governor's stage 3 throttles
    // it out of the chain and stage 0 restores it.
    syn_monitor_ = npr::BuildSynMonitor();
    npr::InstallRequest all;
    all.key = npr::FlowKey::All();
    all.where = npr::Where::kMicroEngine;
    all.program = &syn_monitor_;
    InstallOrFail(all, "syn-monitor");
    ConnectSinks(100e3);
    {
      ScopedSpan start(opts_.trace, "start");
      router_->Start();
      governor_ = std::make_unique<npr::OverloadGovernor>(*router_);
      health_ = std::make_unique<npr::HealthMonitor>(*router_);
    }
    // Conforming: 100 Kpps of 64 B frames on port 0 towards port 5.
    auto choose = [](npr::Rng& rng, npr::PacketSpec& spec) {
      spec.eth_src = npr::PortMac(0);
      spec.eth_dst = npr::PortMac(0xfe);
      spec.src_ip = npr::SrcIpForPort(0, static_cast<uint16_t>(1 + rng.Uniform(16)));
      spec.dst_ip = npr::DstIpForPort(kConformingDst, static_cast<uint16_t>(1 + rng.Uniform(16)));
      spec.frame_bytes = 64;
    };
    pumps_.push_back(std::make_unique<Pump>(router_->engine(), router_->port(0), 0,
                                            in_.conforming_seed, plan_.sources_stop_ps(),
                                            npr::kPsPerSec / 100'000, 1.0, choose));
    Register(pumps_.back().get());
    pumps_.back()->Start();
    // The flood: ports 1-3 at 1.3 Mpps of 64 B frames each, all at victim
    // port 4 (whose output context forwards ~0.55 Mpps), rotating over 64
    // sources so the per-source policer cannot stop it and the ladder walks
    // deeper. The rate stays under what the wire carries once the plan's
    // receive stalls are taken out (~1.4 Mpps): above it, frames queue in
    // front of the wire without bound and keep arriving long after the
    // generators stop.
    for (int p : {1, 2, 3}) {
      npr::TrafficSpec spec;
      spec.rate_pps = 1.3e6;
      spec.adversarial = npr::TrafficSpec::Adversarial::kMinSizeFlood;
      spec.flood_factor = 1.0;
      spec.single_dst_port = 4;
      spec.flood_sources = 64;
      gens_.push_back(std::make_unique<npr::TrafficGen>(router_->engine(), router_->port(p), spec,
                                                        in_.flood_seed + static_cast<uint64_t>(p)));
      gens_.back()->Start(plan_.sources_stop_ps());
    }
    Warmup();
  }

  void Check(std::vector<std::string>* failures) override {
    CheckCommon(failures);
    if (governor_->escalations() == 0) {
      failures->push_back("overload_chaos: the flood never escalated the governor");
    }
  }

  uint64_t offered() const override { return PumpsOffered(); }
  uint64_t delivered() const override { return tally_.delivered; }

  void SimLatencyUs(double* p50, double* p99) override {
    LatencyFromSamples({&tally_}, p50, p99);
  }

  // The destinations both streams draw from, and one conforming, one flood
  // and one TCP SYN packet for the VRP program.
  ReplayCounts ReplayLayers(SpanTrace* trace) override {
    std::vector<uint32_t> dsts;
    for (int p = 0; p < router_->num_ports(); ++p) {
      for (int low = 1; low <= 64; ++low) {
        dsts.push_back(npr::DstIpForPort(static_cast<uint8_t>(p), static_cast<uint16_t>(low)));
      }
    }
    std::vector<npr::PacketSpec> specs(3);
    specs[0].src_ip = npr::SrcIpForPort(0, 1);
    specs[0].dst_ip = npr::DstIpForPort(kConformingDst, 1);
    specs[1].src_ip = npr::SrcIpForPort(1, 7);
    specs[1].dst_ip = npr::DstIpForPort(4, 9);
    specs[2] = specs[0];
    specs[2].protocol = 6;
    specs[2].tcp_flags = 0x02;
    return ReplayCalls(router_->route_table(), dsts, {&syn_monitor_}, specs, trace);
  }

 protected:
  void AddExtra(Counters* c) override {
    for (const npr::RecoveryEvent& e : health_->events()) {
      c->health_recoveries += e.recovered_at != 0 ? 1 : 0;
    }
  }

 private:
  static constexpr uint8_t kConformingDst = 5;

  const Inputs& in_;
  npr::VrpProgram syn_monitor_;
  std::unique_ptr<npr::OverloadGovernor> governor_;
  std::unique_ptr<npr::HealthMonitor> health_;
  std::vector<std::unique_ptr<npr::TrafficGen>> gens_;
};

// --- cluster8 -----------------------------------------------------------------

class Cluster8 : public Workload {
 public:
  static constexpr int kNodes = 8;
  static constexpr SimTime kFabricPs = 2 * npr::kPsPerUs;

  Cluster8(const Inputs& in, const Plan& plan, const Options& options)
      : in_(in), plan_(plan), opts_(options), tallies_(kNodes) {}

  ~Cluster8() override {
    if (cluster_ != nullptr) {
      for (int k = 0; k < kNodes; ++k) {
        cluster_->node(k).SetObserver(nullptr);
      }
    }
  }

  void Setup() override {
    ScopedSpan span(opts_.trace, "setup");
    {
      ScopedSpan c(opts_.trace, "construct");
      npr::ClusterConfig cfg;
      cfg.nodes = kNodes;
      cfg.fabric_latency_ps = kFabricPs;
      cfg.threads = opts_.threads;
      cluster_ = std::make_unique<npr::ClusterRouter>(std::move(cfg));
      if (opts_.trace != nullptr) {
        for (int k = 0; k < kNodes; ++k) {
          observers_.push_back(std::make_unique<npr::Observer>(cluster_->node_engine(k)));
          cluster_->node(k).SetObserver(observers_.back().get());
        }
      }
    }
    {
      ScopedSpan load(opts_.trace, "route_load");
      cluster_->InstallClusterRoutes();
    }
    pumps_by_prefix_.assign(kNodes, nullptr);
    for (int k = 0; k < kNodes; ++k) {
      SinkTally& t = tallies_[static_cast<size_t>(k)];
      t.pumps = &pumps_by_prefix_;
      t.window_lo = plan_.warmup_ps;
      t.window_hi = plan_.sources_stop_ps();
      // ~141 Kpps land on each node; room for the window's samples up front.
      t.latency_us.reserve(static_cast<size_t>(
          1.5 * 141e3 * static_cast<double>(plan_.window_ps()) / npr::kPsPerSec) + 16);
      npr::EventQueue* eng = &cluster_->node_engine(k);
      for (int p = 0; p < cluster_->external_ports_per_node(); ++p) {
        // Runs on node k's shard: touches only tallies_[k].
        cluster_->node(k).port(p).SetSink(
            [&t, eng](npr::Packet&& pkt) { t.OnFrame(pkt, eng->now()); });
      }
    }
    {
      ScopedSpan start(opts_.trace, "start");
      cluster_->Start();
    }
    // Per-node pumps as in bench/cluster_scale RunSharded: 141 Kpps of 64 B
    // on port 0, half of it to another node's prefixes, each node drawing
    // from its own derived stream so every thread count sees the same load.
    const int ext = cluster_->external_ports_per_node();
    npr::ClusterRouter* cl = cluster_.get();
    for (int k = 0; k < kNodes; ++k) {
      auto choose = [cl, k, ext](npr::Rng& rng, npr::PacketSpec& spec) {
        int g;
        if (rng.Chance(kRemoteShare)) {
          int other;
          do {
            other = static_cast<int>(rng.Uniform(static_cast<uint64_t>(kNodes)));
          } while (other == k);
          g = other * ext + static_cast<int>(rng.Uniform(static_cast<uint64_t>(ext)));
        } else {
          g = k * ext + 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(ext - 1)));
        }
        spec.dst_ip = cl->ExternalDstIp(g, static_cast<uint16_t>(1 + rng.Uniform(16)));
        spec.src_ip = npr::SrcIpForPort(static_cast<uint8_t>(k), 1);
        spec.frame_bytes = 64;
      };
      pumps_.push_back(std::make_unique<Pump>(
          cluster_->node_engine(k), cluster_->node(k).port(0), static_cast<uint32_t>(k),
          npr::FaultPlan::DeriveNodeSeed(in_.cluster_seed, k), plan_.sources_stop_ps(),
          npr::kPsPerSec / 141'000, 1.0, choose));
      pumps_by_prefix_[static_cast<size_t>(k)] = pumps_.back().get();
    }
    for (auto& p : pumps_) {
      p->Start();
    }
    {
      ScopedSpan warm(opts_.trace, "warmup");
      cluster_->RunFor(plan_.warmup_ps);
    }
  }

  // Traced: one RunFor per lookahead window, each under its own span.
  void Advance(SimTime dt) override {
    if (opts_.trace == nullptr) {
      cluster_->RunFor(dt);
      return;
    }
    for (SimTime done = 0; done < dt; done += kFabricPs) {
      ScopedSpan span(opts_.trace, "shard.window");
      cluster_->RunFor(std::min(kFabricPs, dt - done));
    }
  }

  Counters Read() override {
    Counters c;
    c.now = cluster_->now();
    c.events = cluster_->TotalEventsRun();
    c.allocs = npr::bench::AllocCount();
    uint64_t to_fabric = 0;
    for (int k = 0; k < kNodes; ++k) {
      npr::Router& node = cluster_->node(k);
      AddRouter(node, &c);
      to_fabric += node.port(cluster_->internal_port()).tx_frames();
    }
    // A cross-node packet is forwarded twice; the hand-off to the fabric is
    // not a disposition.
    c.forwarded -= to_fabric;
    c.dispositioned -= to_fabric;
    c.fabric_frames = cluster_->fabric().forwarded();
    c.gate_dropped = cluster_->fabric().gate_dropped();
    return c;
  }

  Levels ReadLevels() override {
    Levels l;
    for (int k = 0; k < kNodes; ++k) {
      AddLevels(cluster_->node(k), &l);
    }
    return l;
  }

  void Drain() override { cluster_->RunFor(plan_.drain_ps); }

  void Check(std::vector<std::string>* failures) override {
    CheckInvariants(npr::RouterInvariants::CheckCluster(*cluster_), failures);
    uint64_t unknown = 0;
    uint64_t foreign = 0;
    for (const SinkTally& t : tallies_) {
      unknown += t.unknown;
      foreign += t.foreign;
    }
    if (unknown + foreign != 0) {
      failures->push_back("cluster8 sinks saw " + std::to_string(unknown + foreign) +
                          " frames no pump sent");
    }
    if (delivered() != offered()) {
      failures->push_back("cluster8 loss: offered " + std::to_string(offered()) +
                          ", delivered " + std::to_string(delivered()));
    }
  }

  uint64_t Digest() override {
    Fnv f;
    for (int k = 0; k < kNodes; ++k) {
      DigestRouter(cluster_->node(k), &f);
    }
    f.Add(cluster_->fabric().forwarded());
    f.Add(cluster_->TotalEventsRun());
    return f.value();
  }

  uint64_t offered() const override {
    uint64_t n = 0;
    for (const auto& p : pumps_) {
      n += p->offered();
    }
    return n;
  }
  uint64_t delivered() const override {
    uint64_t n = 0;
    for (const SinkTally& t : tallies_) {
      n += t.delivered;
    }
    return n;
  }

  void SimLatencyUs(double* p50, double* p99) override {
    std::vector<const SinkTally*> all;
    for (const SinkTally& t : tallies_) {
      all.push_back(&t);
    }
    LatencyFromSamples(all, p50, p99);
  }

  uint64_t ObserverRecords() override {
    uint64_t n = 0;
    for (const auto& o : observers_) {
      n += o->records();
    }
    return n;
  }

  SimTime ShardWindowPs() const override { return kFabricPs; }

  // Everything that could diverge under a reordering bug, as in
  // bench/cluster_scale RunSharded.
  std::string Fingerprint() override {
    std::ostringstream fp;
    for (int k = 0; k < kNodes; ++k) {
      fp << "n" << k << ":d=" << tallies_[static_cast<size_t>(k)].delivered
         << ",s=" << pumps_[static_cast<size_t>(k)]->offered()
         << ",fwd=" << cluster_->node(k).stats().forwarded << ";";
    }
    fp << "fab=" << cluster_->fabric().forwarded() << ",drops=" << cluster_->TotalDrops()
       << ",ev=" << cluster_->TotalEventsRun() << ",now=" << cluster_->now();
    return fp.str();
  }

 private:
  static constexpr double kRemoteShare = 0.5;

  const Inputs& in_;
  const Plan plan_;
  const Options opts_;
  std::unique_ptr<npr::ClusterRouter> cluster_;
  std::vector<std::unique_ptr<npr::Observer>> observers_;
  std::vector<std::unique_ptr<Pump>> pumps_;
  std::vector<const Pump*> pumps_by_prefix_;
  std::vector<SinkTally> tallies_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const WorkloadInfo& info, const Inputs& inputs,
                                       const Plan& plan, const Options& options) {
  const std::string name = info.name;
  if (name == "fifo_min") {
    return std::make_unique<FifoMin>(plan, options);
  }
  if (name == "linerate_mix") {
    return std::make_unique<LineRateMix>(inputs, plan, options);
  }
  if (name == "cluster8") {
    return std::make_unique<Cluster8>(inputs, plan, options);
  }
  if (name == "overload_chaos") {
    return std::make_unique<OverloadChaos>(inputs, plan, options);
  }
  return nullptr;
}

RunResult RunOnce(const WorkloadInfo& info, const Inputs& inputs, const Plan& plan,
                  const Options& opts, int setup_repeats, bool replay) {
  RunResult r;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < setup_repeats; ++i) {
    w.reset();
    w = MakeWorkload(info, inputs, plan, opts);
    const int64_t t0 = HostNowNs();
    w->Setup();
    r.setup_s.push_back(static_cast<double>(HostNowNs() - t0) / 1e9);
  }
  // Counters move into the current block at block and episode boundaries.
  Counters open = w->Read();
  Counters block;
  auto take = [&] {
    const Counters now = w->Read();
    block.AddWindow(open, now);
    open = now;
  };
  int next_block = 1;
  {
    ScopedSpan window(opts.trace, "window");
    r.timer.Start();
    for (int i = 0; i < plan.slices; ++i) {
      if (next_block < plan.blocks && i == plan.block_start(next_block)) {
        take();
        r.blocks.push_back(block);
        block = Counters{};
        ++next_block;
      }
      if (plan.episode_slices > 0 && i > 0 && i % plan.episode_slices == 0) {
        take();
        w->Drain();
        w->Check(&r.failures);
        w.reset();
        w = MakeWorkload(info, inputs, plan, opts);
        w->Setup();
        open = w->Read();
        r.timer.Resume();
      }
      ScopedSpan slice(opts.trace, "slice");
      w->Advance(plan.slice_ps);
      r.timer.Mark();
    }
  }
  take();
  r.blocks.push_back(block);
  for (const Counters& b : r.blocks) {
    r.window.AddWindow(Counters{}, b);
  }
  r.peak_rss_mb = PeakRssMb();
  r.levels = w->ReadLevels();
  w->Drain();
  w->Check(&r.failures);
  r.totals = w->Read();
  if (w->has_sources()) {
    r.offered = w->offered();
    r.delivered = w->delivered();
  } else {
    r.offered = r.window.dispositioned;
    r.delivered = r.window.forwarded;
  }
  w->SimLatencyUs(&r.lat_p50_us, &r.lat_p99_us);
  r.digest = w->Digest();
  r.fingerprint = w->Fingerprint();
  r.observer_records = w->ObserverRecords();
  r.shard_window_ps = w->ShardWindowPs();
  if (replay) {
    r.replay = w->ReplayLayers(opts.trace);
  }
  return r;
}

}  // namespace perfbench
