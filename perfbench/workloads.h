// The benchmark's workloads. Each drives the library from outside through
// public calls only (Router, ClusterRouter, Install, LoadRoutesFromString,
// RunFor) and reads the counters the modules already expose.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/measure.h"
#include "src/sim/time.h"

namespace perfbench {

// Raw cumulative counters summed over every router of a workload. The
// benchmark reads them at the opening and the close of the measured window
// and works on the difference, so no counter is ever reset mid-run (which
// keeps RouterInvariants' conservation check valid at the end).
#define PERFBENCH_COUNTERS(X)                                                   \
  X(npr::SimTime, now)                                                          \
  X(uint64_t, events)                                                           \
  X(uint64_t, dispositioned) /* forwarded, or retired through a counted sink */ \
  X(uint64_t, forwarded)     /* delivered to the destination */                 \
  X(uint64_t, allocs)                                                           \
  X(uint64_t, dram_ops) X(uint64_t, sram_ops) X(uint64_t, scratch_ops)          \
  X(double, dram_busy_ps) X(double, sram_busy_ps) X(double, pci_busy_ps)       \
  X(uint64_t, me_busy_cycles) X(uint64_t, token_idle_ps)                        \
  X(uint64_t, mutex_acquires) X(uint64_t, mutex_contended)                      \
  X(uint64_t, ready_wait_ps) X(uint64_t, sa_busy_cycles) X(uint64_t, pe_busy_cycles) \
  X(uint64_t, pool_acquires) X(uint64_t, pool_exhausted)                        \
  X(uint64_t, rx_offered) X(uint64_t, rx_dropped)                               \
  X(uint64_t, input_packets) X(uint64_t, exceptional) X(uint64_t, to_pentium)   \
  X(uint64_t, queue_drops)                                                      \
  X(uint64_t, in_reg_cycles) X(uint64_t, in_mps)                                \
  X(uint64_t, out_reg_cycles) X(uint64_t, out_mps) X(uint64_t, out_idle_iters)  \
  X(uint64_t, cache_hits) X(uint64_t, cache_misses) X(uint64_t, vrp_traps)      \
  X(uint64_t, gov_escalations) X(uint64_t, gov_shed) X(uint64_t, fault_injected) \
  X(uint64_t, health_recoveries) X(uint64_t, ctrl_retries)                      \
  X(uint64_t, fabric_frames) X(uint64_t, gate_dropped)

struct Counters {
#define PERFBENCH_FIELD(type, name) type name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  // Adds (close - open), field by field.
  void AddWindow(const Counters& open, const Counters& close) {
#define PERFBENCH_ADD(type, name) name += close.name - open.name;
    PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  }
};

// Quantities that are levels, not flows: read once at the end.
struct Levels {
  uint64_t pool_high_water = 0;
  uint64_t queue_max_depth = 0;
  double dram_wait_ns_p99 = 0;
  double sram_wait_ns_p99 = 0;
  int mes = 0;            // MicroEngines summed over routers
  int token_rings = 0;
  int routers = 0;
};

// Static description of a workload: why it exists and how long each phase
// is in simulated time.
struct WorkloadInfo {
  const char* name;
  const char* why;
  // Simulated milliseconds the window covers per requested host second.
  // This fixes the window's simulated length from --seconds alone, so the
  // simulated work (and every count and digest) is identical on any host,
  // and a faster simulator finishes the same work sooner.
  double sim_ms_per_run_s;
  npr::SimTime quantum_ps;  // slices are whole multiples of this
  npr::SimTime warmup_ps;
  npr::SimTime drain_ps;    // after the window, sources stopped, untimed
  // Non-zero: the window is a series of episodes of this simulated length,
  // each on a freshly set-up workload (set-up and warm-up untimed).
  npr::SimTime episode_ps;
  // Runs on the sharded engine (one thread end to end; the traced mode and
  // the determinism check use max(2, min(4, nproc)) workers).
  bool sharded;
};

const std::vector<WorkloadInfo>& AllWorkloads();
const WorkloadInfo* FindWorkload(const std::string& name);

// Simulated lengths of one run. The window is `slices` slices of
// `slice_ps`, split into `blocks` consecutive blocks; host-time metrics are
// the median over blocks, so a burst of host noise confined to one block
// does not move them.
struct Plan {
  npr::SimTime warmup_ps = 0;
  npr::SimTime slice_ps = 0;
  int slices = 0;
  int blocks = 1;
  int episode_slices = 0;  // slices per episode; 0: one continuous window
  npr::SimTime drain_ps = 0;
  int block_start(int b) const { return static_cast<int>(int64_t{b} * slices / blocks); }
  npr::SimTime window_ps() const { return slice_ps * slices; }
  // Simulated length of the window one workload instance runs.
  npr::SimTime instance_window_ps() const {
    return slice_ps * (episode_slices > 0 ? episode_slices : slices);
  }
  npr::SimTime sources_stop_ps() const { return warmup_ps + instance_window_ps(); }
};

// At least `block_slices` slices in each of `blocks` blocks.
Plan MakePlan(const WorkloadInfo& info, double seconds, int block_slices, int blocks);

// Calls made per replay batch (each batch is one span).
struct ReplayCounts {
  size_t lookups_per_batch = 0;
  size_t vrp_runs_per_batch = 0;
};

struct Options {
  int threads = 1;  // shard workers of a sharded workload
  // The traced run: spans go here and every router gets an npr Observer.
  SpanTrace* trace = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Everything before the measured window: construction, route load,
  // installs, Start, simulated warm-up.
  virtual void Setup() = 0;
  // Advances simulated time by dt.
  virtual void Advance(npr::SimTime dt) = 0;
  virtual Counters Read() = 0;
  virtual Levels ReadLevels() = 0;
  // Runs the drain period; sources have stopped at the window's close.
  virtual void Drain() = 0;
  // Appends one line per failed correctness check.
  virtual void Check(std::vector<std::string>* failures) = 0;
  // FNV-1a over every simulated statistic (RouterStats fields, memory
  // channel counters, events run).
  virtual uint64_t Digest() = 0;

  // Conforming packets offered and delivered (the failed-operation share).
  // A workload without sources of its own (fifo_min) counts the window's
  // dispositioned packets as offered and its forwarded ones as delivered.
  virtual bool has_sources() const { return true; }
  virtual uint64_t offered() const { return 0; }
  virtual uint64_t delivered() const { return 0; }
  // Simulated latency percentiles (us) over the window.
  virtual void SimLatencyUs(double* p50, double* p99) = 0;
  // Observer records, summed over routers (0 without an observer).
  virtual uint64_t ObserverRecords() { return 0; }
  // Replays host-side layer calls (route lookups, VRP runs) under spans.
  virtual ReplayCounts ReplayLayers(SpanTrace* trace) {
    (void)trace;
    return {};
  }
  // The lookahead window of a sharded workload; 0 otherwise.
  virtual npr::SimTime ShardWindowPs() const { return 0; }
  // Run fingerprint compared across thread counts (cluster8).
  virtual std::string Fingerprint() { return ""; }
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadInfo& info, const Inputs& inputs,
                                       const Plan& plan, const Options& options);

// Everything one run of a workload produced.
struct RunResult {
  std::vector<double> setup_s;
  SliceTimer timer;
  std::vector<Counters> blocks;  // per block of the window, summed over episodes
  Counters window;                // all blocks
  Counters totals;                // the last instance's whole run: set-up, window, drain
  Levels levels;
  uint64_t offered = 0;
  uint64_t delivered = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  uint64_t digest = 0;
  std::string fingerprint;
  std::vector<std::string> failures;
  uint64_t observer_records = 0;
  npr::SimTime shard_window_ps = 0;
  ReplayCounts replay;
  double peak_rss_mb = 0;
  double window_s() const { return static_cast<double>(timer.total_ns()) / 1e9; }
};

// One run of a workload: `setup_repeats` timed set-ups (each discarded but
// the last), the measured window in `plan.slices` fixed simulated slices,
// then the untimed drain and the correctness checks. With `replay`, the
// layer replays run last.
RunResult RunOnce(const WorkloadInfo& info, const Inputs& inputs, const Plan& plan,
                  const Options& opts, int setup_repeats, bool replay);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
