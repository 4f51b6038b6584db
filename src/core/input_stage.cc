#include "src/core/input_stage.h"

#include <algorithm>
#include <cassert>

#include "src/core/strongarm_bridge.h"
#include "src/core/upgrade.h"
#include "src/fault/fault_injector.h"
#include "src/net/traffic_gen.h"
#include "src/obs/observer.h"
#include "src/sim/log.h"

namespace npr {

InputStage::InputStage(RouterCore& core, Classifier& classifier)
    : core_(core),
      classifier_(classifier),
      contexts_(core),
      rng_(0x1a2b3c4d5e6f7788ULL) {
  const RouterConfig& cfg = *core_.config;
  assembly_.resize(static_cast<size_t>(std::max(cfg.num_ports(), 16)));

  // Pre-built synthetic frames, one per destination port, with valid
  // checksums (InfiniteFifo mode).
  templates_.reserve(static_cast<size_t>(cfg.num_ports()));
  for (int p = 0; p < cfg.num_ports(); ++p) {
    PacketSpec spec;
    spec.dst_ip = DstIpForPort(static_cast<uint8_t>(p), 1);
    spec.src_ip = SrcIpForPort(0, 1);
    spec.frame_bytes = 64;
    spec.eth_dst = PortMac(0xfe);
    templates_.push_back(BuildPacket(spec));
  }
}

void InputStage::Start() {
  const RouterConfig& cfg = *core_.config;
  const int n_ctx = cfg.input_contexts();
  const int per_me = cfg.hw.contexts_per_me;
  const int n_me = (n_ctx + per_me - 1) / per_me;
  assert(n_me <= core_.chip->num_mes());

  // Ring order interleaves MicroEngines: position r lives on ME (r % n_me),
  // so a release always signals a context on another engine, and the two
  // contexts serving the same port sit half a rotation apart (§3.2.2).
  // The non-interleaved order (all four contexts of ME0, then ME1, ...)
  // exists for the ablation bench.
  for (int r = 0; r < n_ctx; ++r) {
    const int me = cfg.token_ring_interleaved ? r % n_me : r / cfg.hw.contexts_per_me;
    const int slot = cfg.token_ring_interleaved ? r / n_me : r % cfg.hw.contexts_per_me;
    contexts_.Add(core_.chip->me(me).context(slot));
  }
  contexts_.Start([this](int r) { return ContextLoop(r); });
}

int InputStage::partial_assemblies() const {
  int n = 0;
  for (const PortAssembly& as : assembly_) {
    n += as.in_packet ? 1 : 0;
  }
  return n;
}

Mp InputStage::SynthesizeMp() {
  const RouterConfig& cfg = *core_.config;
  uint8_t dst_port;
  if (cfg.synthetic_single_dst) {
    dst_port = cfg.synthetic_dst_port;
  } else {
    // Claims are serialized by the token, so a global round-robin spreads
    // destinations perfectly across the output ports.
    dst_port = static_cast<uint8_t>(synthetic_seq_ % static_cast<uint64_t>(cfg.num_ports()));
  }
  const Packet& tmpl = templates_[dst_port];
  Mp mp;
  std::copy(tmpl.bytes().begin(), tmpl.bytes().end(), mp.data.begin());
  mp.tag.port = 0;
  mp.tag.sop = true;
  mp.tag.eop = true;
  mp.tag.bytes = 64;
  mp.tag.packet_id = static_cast<uint32_t>(++synthetic_seq_);
  return mp;
}

bool InputStage::ClaimNext(uint8_t port, int ctx_index, Claim* claim) {
  const RouterConfig& cfg = *core_.config;
  if (cfg.port_mode == PortMode::kInfiniteFifo) {
    claim->mp = SynthesizeMp();
  } else {
    MacPort* mac = core_.ports[port];
    auto mp = mac->RxClaim();
    if (!mp) {
      return false;
    }
    claim->mp = *mp;
  }

  // calculate_mp_addr: the per-port assembly state decides this MP's DRAM
  // placement; serialized by the token, so no extra locking (§3.2.3).
  PortAssembly& as = assembly_[port];
  if (claim->mp.tag.sop) {
    BufferMeta meta;
    meta.packet_id = claim->mp.tag.packet_id;
    meta.arrival_port = port;
    meta.ingress_time = core_.engine->now();
    if (core_.stack_pool != nullptr) {
      // §3.2.3 alternative: explicit lifetime, allocation can fail.
      auto addr = core_.stack_pool->Allocate(meta);
      if (!addr) {
        Retire(core_, Sink::kNoBuffer, meta.packet_id, ObsUnitOf(contexts_.context(ctx_index)),
               port);
        as.in_packet = false;
        return false;
      }
      as.buffer_addr = *addr;
      as.generation = 0;
    } else {
      as.buffer_addr = core_.buffers->Allocate(meta);
      as.generation = core_.buffers->MetaFor(as.buffer_addr).generation;
    }
    as.next_mp = 0;
    as.in_packet = true;
    NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kPktIngress, claim->mp.tag.packet_id,
                                   ObsUnitOf(contexts_.context(ctx_index)), port));
  }
  claim->buffer_addr = as.buffer_addr;
  claim->mp_index = as.next_mp;
  claim->mp_addr = as.buffer_addr + static_cast<uint32_t>(as.next_mp) * 64;
  claim->generation = as.generation;
  ++as.next_mp;
  if (claim->mp.tag.eop) {
    as.in_packet = false;
  }
  return true;
}

InputStage::Disposition InputStage::ClassifyFirstMp(std::span<uint8_t> mp_bytes,
                                                    uint8_t arrival_port, VrpCost* vrp_cost,
                                                    uint32_t packet_id, uint8_t obs_unit) {
  const RouterConfig& cfg = *core_.config;
  Disposition disp;
  ClassifyOutcome outcome = classifier_.Classify(mp_bytes);

  switch (outcome.target) {
    case ClassifyOutcome::Target::kDrop:
      Retire(core_, Sink::kInvalid, packet_id, obs_unit, arrival_port);
      disp.act = Disposition::Act::kDrop;
      return disp;
    case ClassifyOutcome::Target::kStrongArmLocal:
      disp.act = Disposition::Act::kStrongArm;
      disp.flow = outcome.flow;
      return disp;
    case ClassifyOutcome::Target::kPentium:
      disp.act = Disposition::Act::kPentium;
      disp.flow = outcome.flow;
      return disp;
    case ClassifyOutcome::Target::kPort:
      break;
  }

  // Minimal IP forwarding, applied in place (§3.2: decrement TTL, update
  // checksum, rewrite MACs from the route entry).
  if (!DecrementTtlInPlace(mp_bytes.subspan(kEthHeaderBytes))) {
    disp.act = Disposition::Act::kStrongArm;  // TTL hit zero: ICMP is control work
    return disp;
  }
  EthernetHeader eth = *EthernetHeader::Parse(mp_bytes);
  eth.src = PortMac(outcome.out_port);
  eth.dst = outcome.route.next_hop_mac;
  eth.Write(mp_bytes);

  disp.act = Disposition::Act::kQueue;
  disp.out_port = outcome.out_port;
  disp.priority = 0;

  // Per-flow VRP program (at most one, §4.6), then the general chain, IP
  // last being the built-in transform above. Only the per-flow program
  // picks a queue or raises an exception.
  if (outcome.flow != nullptr && outcome.flow->where == Where::kMicroEngine &&
      !core_.istore->IsThrottled(outcome.flow->me_program_id)) {
    const VrpProgram* program = core_.istore->Get(outcome.flow->me_program_id);
    if (program != nullptr) {
      const VrpOutcome run = RunForwarder(
          {program, outcome.flow->state_addr, outcome.flow->me_program_id}, mp_bytes,
          arrival_port, vrp_cost, packet_id, obs_unit);
      if (run.queue) {
        disp.priority = std::min<uint32_t>(
            *run.queue, static_cast<uint32_t>(cfg.queues_per_port - 1));
      }
      if (run.action != VrpAction::kSend) {
        disp.act = run.action == VrpAction::kDrop ? Disposition::Act::kDrop
                                                  : Disposition::Act::kStrongArm;
        return disp;
      }
    }
  }
  for (const auto& general : core_.istore->GeneralChain()) {
    const VrpOutcome run =
        RunForwarder(general, mp_bytes, arrival_port, vrp_cost, packet_id, obs_unit);
    if (run.action == VrpAction::kDrop || run.action == VrpAction::kTrap) {
      disp.act = run.action == VrpAction::kDrop ? Disposition::Act::kDrop
                                                : Disposition::Act::kStrongArm;
      return disp;
    }
  }

  // Robustness-experiment overrides (InfiniteFifo synthetic traffic).
  if (cfg.synthetic_pentium_fraction > 0 && rng_.Chance(cfg.synthetic_pentium_fraction)) {
    disp.act = Disposition::Act::kPentium;
  } else if (cfg.synthetic_exceptional_fraction > 0 &&
             rng_.Chance(cfg.synthetic_exceptional_fraction)) {
    disp.act = Disposition::Act::kStrongArm;
  }
  return disp;
}

VrpOutcome InputStage::RunForwarder(const IStoreLayout::GeneralEntry& fwd,
                                    std::span<uint8_t> mp_bytes, uint8_t arrival_port,
                                    VrpCost* vrp_cost, uint32_t packet_id, uint8_t obs_unit) {
  // Upgrade shadow hooks: snapshot the pristine MP, then hand the post-run
  // view and verdict to the orchestrator's comparator. Functional only — no
  // cycles, no Rng.
  if (core_.upgrade != nullptr) {
    core_.upgrade->BeginPacket(fwd.id, mp_bytes);
  }
  VrpOutcome run = core_.vrp->Run(*fwd.program, mp_bytes, fwd.state_addr, &core_.config->budget);
  if (core_.fault != nullptr && run.action != VrpAction::kTrap && core_.fault->ShouldTrapVrp()) {
    run.action = VrpAction::kTrap;
  }
  if (core_.upgrade != nullptr) {
    core_.upgrade->EndPacket(fwd.id, mp_bytes, run);
  }
  vrp_cost->cycles += run.metered.cycles;
  vrp_cost->sram_reads += run.metered.sram_reads;
  vrp_cost->sram_writes += run.metered.sram_writes;
  vrp_cost->hashes += run.metered.hashes;
  if (run.action == VrpAction::kDrop) {
    Retire(core_, Sink::kVrp, packet_id, obs_unit, arrival_port);
  } else if (run.action == VrpAction::kTrap) {
    core_.stats->vrp_traps += 1;
    NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kFault, packet_id, obs_unit,
                                   static_cast<uint16_t>(FaultKind::kVrpTrap)));
    NPR_OBS_HOOK(core_.obs, TriggerDump("vrp_trap", packet_id));
    if (core_.health != nullptr) {
      core_.health->OnVrpTrap(fwd.id);
    }
  }
  return run;
}

Task InputStage::ContextLoop(int ctx_index) {
  const RouterConfig& cfg = *core_.config;
  const StageCosts& costs = cfg.costs;
  MemorySystem& mem = core_.chip->memory();
  StageStats& st = core_.stats->input;
  HwContext& ctx = contexts_.context(ctx_index);
  TokenRing& ring = contexts_.ring();
  const uint8_t port = static_cast<uint8_t>(ctx_index % cfg.num_ports());

  for (;;) {
    // Crash-safe point: no token, mutex, or claim is held here, so a crash
    // loses no packet — at worst a partial assembly waits for the port's
    // sibling context or this context's restart.
    if (contexts_.Crashed(ctx_index)) {
      co_return;
    }
    co_await ring.Acquire(ctx_index);
    // Token critical section: port check + DMA issue (§3.2.2). The
    // calibrated overhead models the signal test and branch shadow.
    co_await ctx.Compute(costs.in_cs_port_check + cfg.hw.input_token_overhead_cycles);
    st.reg_cycles += costs.in_cs_port_check;

    Claim claim;
    if (!ClaimNext(port, ctx_index, &claim)) {
      ring.Release(ctx_index);
      co_await ctx.Compute(costs.in_loop);
      // Idle port: give the engine to siblings rather than spinning hot.
      co_await ctx.Yield();
      continue;
    }
    co_await ctx.Compute(costs.in_cs_dma_issue);
    st.reg_cycles += costs.in_cs_dma_issue;

    if (cfg.port_mode == PortMode::kReal) {
      // The DMA moves the MP from port memory to the context's RFIFO slot
      // across the IX bus; the token is released as soon as the transfer is
      // issued (Figure 5, lines 3-4).
      HwContext* self = &ctx;
      core_.chip->rx_dma().Transfer(64, [self] { self->MakeReady(); });
      ring.Release(ctx_index);
      co_await ctx.Block();
      // Functional: the MP lands in this context's FIFO slot.
      FifoSlot& slot = core_.chip->rfifo().slot(ctx_index % core_.chip->rfifo().size());
      slot.data = claim.mp.data;
      slot.tag = claim.mp.tag;
      slot.valid = true;
    } else {
      ring.Release(ctx_index);
    }

    co_await ctx.Compute(costs.in_addr_calc + costs.in_fifo_copy);
    st.reg_cycles += costs.in_addr_calc + costs.in_fifo_copy;
    if (core_.stack_pool != nullptr && claim.mp.tag.sop) {
      // §3.2.3 alternative: the buffer pop is an extra SRAM round trip.
      co_await ctx.Read(mem.sram(), 4);
      st.sram_reads += 1;
    }
    if (cfg.dram_direct_path) {
      // §3.7 ablation: the port's DMA already wrote the MP to DRAM, and
      // the context must fetch it from there rather than from a FIFO slot.
      mem.dram().Issue(64, /*is_write=*/true, nullptr);  // port -> DRAM (DMA)
      co_await ctx.Read(mem.dram(), 64);                 // DRAM -> registers
      st.dram_reads += 2;
      st.dram_writes += 2;
    }

    // Protocol processing (§3.2): classification + forwarder, charged per
    // MP. The route-cache entry is 8 bytes = two 4-byte SRAM reads.
    co_await ctx.Compute(costs.in_protocol);
    st.reg_cycles += costs.in_protocol;
    co_await ctx.Read(mem.sram(), 4);
    co_await ctx.Read(mem.sram(), 4);
    st.sram_reads += 2;
    if (cfg.classifier == ClassifierMode::kFlowTable) {
      // Full classifier reads 20 B of flow metadata (§4.5).
      co_await ctx.Read(mem.sram(), 20);
      st.sram_reads += 5;
    }

    VrpCost vrp_cost;
    PortAssembly& as = assembly_[port];
    if (claim.mp.tag.sop) {
      claim.disp = ClassifyFirstMp(std::span<uint8_t>(claim.mp.data).first(claim.mp.tag.bytes),
                                   port, &vrp_cost, claim.mp.tag.packet_id, ObsUnitOf(ctx));
      as.disp = claim.disp;
      NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kInClassified, claim.mp.tag.packet_id,
                                     ObsUnitOf(ctx), static_cast<uint16_t>(claim.disp.act)));
    } else {
      claim.disp = as.disp;
    }

    // Charge the measured VRP cost: instruction cycles inline, SRAM
    // transfers against the channel (reads awaited, writes posted).
    if (vrp_cost.cycles > 0) {
      co_await ctx.Compute(vrp_cost.cycles);
      st.reg_cycles += vrp_cost.cycles;
    }
    for (uint32_t i = 0; i < vrp_cost.sram_reads; ++i) {
      co_await ctx.Read(mem.sram(), 4);
      st.sram_reads += 1;
    }
    if (vrp_cost.sram_writes > 0) {
      ctx.PostBurst(mem.sram(), vrp_cost.sram_writes, 4);
      st.sram_writes += vrp_cost.sram_writes;
    }

    // Synthetic VRP blocks (Figures 9/10).
    for (uint32_t b = 0; b < cfg.vrp_blocks_reg; ++b) {
      co_await ctx.Compute(10);
      st.reg_cycles += 10;
    }
    for (uint32_t b = 0; b < cfg.vrp_blocks_sram; ++b) {
      co_await ctx.Read(mem.sram(), 4);
      st.sram_reads += 1;
    }

    // Copy the (possibly modified) MP from registers to DRAM: two 32-byte
    // transfers (Table 2).
    co_await ctx.Compute(costs.in_dram_copy);
    st.reg_cycles += costs.in_dram_copy;
    mem.dram_store().Write(claim.mp_addr, std::span<const uint8_t>(claim.mp.data));
    co_await ctx.Write(mem.dram(), 32);
    co_await ctx.Write(mem.dram(), 32);
    st.dram_writes += 2;

    st.mps += 1;
    if (claim.mp.tag.sop) {
      st.packets += 1;
    }

    if (claim.mp.tag.eop && claim.disp.act == Disposition::Act::kDrop) {
      ReleaseBuffer(core_, claim.buffer_addr);
    }
    // Enqueue on the packet's last MP (store-and-forward; identical to the
    // paper's cut-through for the 64-byte packets every experiment uses).
    if (claim.mp.tag.eop && claim.disp.act != Disposition::Act::kDrop) {
      PacketQueue* queue = nullptr;
      HwMutex* mutex = nullptr;
      bool to_port = false;
      switch (claim.disp.act) {
        case Disposition::Act::kQueue:
          queue = &core_.queues->QueueFor(ctx_index, claim.disp.out_port, claim.disp.priority);
          mutex = core_.queues->MutexFor(*queue);
          to_port = true;
          break;
        case Disposition::Act::kStrongArm:
          // The exception queues are not in the QueuePlan (their ids are
          // foreign to it); they are serialized by the bridge's HwMutex.
          queue = core_.sa_local_queue;
          core_.stats->exceptional += 1;
          break;
        case Disposition::Act::kPentium:
          queue = core_.sa_pentium_queue;
          core_.stats->to_pentium += 1;
          break;
        case Disposition::Act::kDrop:
          break;
      }

      if (mutex != nullptr) {
        co_await mutex->Acquire(ctx);
        st.mutex_ops += 2;
        co_await ctx.Compute(costs.in_mutex_ops);
        st.reg_cycles += costs.in_mutex_ops;
        // CAM probe pipeline stall: engine time, not instructions (see
        // HwConfig::mutex_pipeline_stall_cycles).
        co_await ctx.Compute(cfg.hw.mutex_pipeline_stall_cycles);
      }
      co_await ctx.Compute(costs.in_enqueue);
      st.reg_cycles += costs.in_enqueue;

      PacketDescriptor d;
      d.buffer_addr = claim.buffer_addr;
      d.mp_count = static_cast<uint16_t>(claim.mp_index + 1);
      d.out_port = claim.disp.out_port;
      d.exceptional = claim.disp.act != Disposition::Act::kQueue;
      d.generation = claim.generation;
      d.flow_handle = claim.disp.flow != nullptr ? claim.disp.flow->fid : 0;
      d.frame_bytes = static_cast<uint16_t>(claim.mp_index * 64 + claim.mp.tag.bytes);
      if (queue->Push(d)) {
        co_await ctx.Write(mem.sram(), 4);  // descriptor word
        st.sram_writes += 1;
        // Head pointer, readiness bit, allocator state, port statistics:
        // four posted Scratch writes (Table 2), issued as one burst.
        ctx.PostBurst(mem.scratch(), 4, 4);
        st.scratch_writes += 4;
        if (to_port) {
          core_.queues->MarkReady(*queue);
        } else if (core_.bridge != nullptr) {
          NotifyBridge(*core_.bridge);
        }
#if defined(NPR_OBS_ENABLED)
        if (core_.obs != nullptr) {
          const SpanPoint pt = claim.disp.act == Disposition::Act::kQueue ? SpanPoint::kInEnqueued
                               : claim.disp.act == Disposition::Act::kStrongArm
                                   ? SpanPoint::kInToSa
                                   : SpanPoint::kInToPe;
          core_.obs->Record(pt, claim.mp.tag.packet_id, ObsUnitOf(ctx), claim.disp.out_port);
        }
#endif
      } else {
        RetireBuffer(core_, Sink::kQueueFull, claim.mp.tag.packet_id, claim.buffer_addr,
                     ObsUnitOf(ctx), claim.disp.out_port);
      }
      if (mutex != nullptr) {
        mutex->Release();
      }
    }

    co_await ctx.Compute(costs.in_loop);
    st.reg_cycles += costs.in_loop;
  }
}

}  // namespace npr
