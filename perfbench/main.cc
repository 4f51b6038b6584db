// npr benchmark: runs one named workload from a seed, measures the
// simulator end to end (untraced) or layer by layer (traced), checks the
// simulated router's outputs, and prints every metric by name with its
// unit. The last line of standard output is the result as one JSON object.
//
//   npr_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// perfbench/README.md describes the workloads and metrics; perfbench/run.py
// builds this binary from source and runs it.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/measure.h"
#include "perfbench/workloads.h"

#ifndef NPR_BENCH_BUILD_TYPE
#define NPR_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool ObsCompiledIn() {
#ifdef NPR_OBS_ENABLED
  return true;
#else
  return false;
#endif
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// The window is kBlocks blocks of at least kBlockSlices slices (so each
// block's p99 has ten samples beyond it); host-time metrics are medians over
// the blocks. setup_s is the median of kSetups set-ups.
constexpr int kBlocks = 5;
constexpr int kBlockSlices = 1000;
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "npr_bench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0) {
    std::fprintf(stderr, "npr_bench: every option takes a value\n");
    return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<Metric> EndToEnd(const RunResult& r, const Plan& plan) {
  std::vector<double> rate, kpps, p50, p99;
  for (int b = 0; b < plan.blocks; ++b) {
    const int lo = plan.block_start(b);
    const int hi = b + 1 < plan.blocks ? plan.block_start(b + 1) : plan.slices;
    std::vector<double> ms;
    double host_s = 0;
    for (int i = lo; i < hi; ++i) {
      ms.push_back(static_cast<double>(r.timer.slice_ns(static_cast<size_t>(i))) / 1e6);
      host_s += ms.back() / 1e3;
    }
    const double sim_ms = static_cast<double>(plan.slice_ps) * (hi - lo) / npr::kPsPerMs;
    const Distribution d = Summarize(ms);
    rate.push_back(sim_ms / host_s);
    kpps.push_back(static_cast<double>(r.blocks[static_cast<size_t>(b)].dispositioned) / host_s /
                   1e3);
    p50.push_back(d.p50);
    p99.push_back(d.top);
    std::printf("block %d slices=%zu host_s=%.4f sim_ms_per_s=%.3f host_kpps=%.3f p50_ms=%.4f "
                "p%g_ms=%.4f\n",
                b, d.n, host_s, rate.back(), kpps.back(), d.p50, d.top_p, d.top);
  }
  const double sim_s = static_cast<double>(plan.window_ps()) / npr::kPsPerSec;
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"sim_ms_per_s", Median(rate), "ms/s"},
      {"host_kpps", Median(kpps), "kpps"},
      {"slice_ms_p50", Median(p50), "ms"},
      {"slice_ms_p99", Median(p99), "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"sim_mpps", static_cast<double>(r.window.forwarded) / sim_s / 1e6, "Mpps"},
      {"sim_lat_us_p50", r.lat_p50_us, "sim_us"},
      {"sim_lat_us_p99", r.lat_p99_us, "sim_us"},
  };
}

// Per-layer metrics: counts from the untraced run `u`; host time from the
// traced run `t`, whose overhead is against `untraced_window_s`, the window
// of an untraced run at the same thread count. `speedup` is t=1 over t=N
// window host time (sharded workloads).
std::vector<Metric> PerLayer(const RunResult& u, const RunResult& t, const SpanTrace& spans,
                             const Plan& plan, double untraced_window_s, double speedup,
                             int threads) {
  const Counters& w = u.window;
  const Levels& l = u.levels;
  const double pkts = static_cast<double>(w.dispositioned);
  const double window_ps = static_cast<double>(plan.window_ps());
  const double events = static_cast<double>(w.events);
  auto D = [](uint64_t v) { return static_cast<double>(v); };

  const npr::SimTime shard_window_ps = u.shard_window_ps;
  const double windows = shard_window_ps > 0 ? window_ps / static_cast<double>(shard_window_ps) : 0;
  const Distribution shard_win = Summarize(spans.DurationsNs("shard.window"));

  auto per_call_ns = [&spans](const char* name, size_t calls) {
    return calls == 0 ? 0.0 : Median(spans.DurationsNs(name)) / static_cast<double>(calls);
  };
  const std::vector<double> installs = spans.DurationsNs("install");

  return {
      {"sim.events_per_pkt", Ratio(events, pkts), "ev/pkt"},
      {"sim.mev_per_s", events / u.window_s() / 1e6, "Mev/s"},
      {"shard.windows", windows, "count"},
      {"shard.events_per_window", Ratio(events, windows), "ev/window"},
      {"shard.window_us_p50", shard_win.p50 / 1e3, "us"},
      {"shard.window_us_p99", shard_win.top / 1e3, "us"},
      {"shard.speedup", speedup, "x"},
      {"shard.efficiency", shard_window_ps > 0 ? speedup / threads : 0, "ratio"},
      {"mem.dram.ops_per_pkt", Ratio(D(w.dram_ops), pkts), "ops/pkt"},
      {"mem.sram.ops_per_pkt", Ratio(D(w.sram_ops), pkts), "ops/pkt"},
      {"mem.scratch.ops_per_pkt", Ratio(D(w.scratch_ops), pkts), "ops/pkt"},
      {"mem.dram.util", Ratio(w.dram_busy_ps, window_ps * l.routers), "ratio"},
      {"mem.sram.util", Ratio(w.sram_busy_ps, window_ps * l.routers), "ratio"},
      {"mem.pci.util", Ratio(w.pci_busy_ps, window_ps * l.routers), "ratio"},
      {"mem.dram.wait_ns_p99", l.dram_wait_ns_p99, "sim_ns"},
      {"mem.sram.wait_ns_p99", l.sram_wait_ns_p99, "sim_ns"},
      {"ixp.me_busy_frac",
       Ratio(D(w.me_busy_cycles) * npr::kIxpClock.cycle_ps, window_ps * l.mes),
       "ratio"},
      {"ixp.token_idle_frac", Ratio(D(w.token_idle_ps), window_ps * l.token_rings),
       "ratio"},
      {"ixp.mutex_contended_frac",
       Ratio(D(w.mutex_contended), D(w.mutex_acquires)),
       "ratio"},
      {"ixp.ready_wait_us_per_kpkt",
       Ratio(D(w.ready_wait_ps) / 1e6, pkts / 1e3), "sim_us/kpkt"},
      {"ixp.sa_util",
       Ratio(D(w.sa_busy_cycles) * npr::kIxpClock.cycle_ps,
             window_ps * l.routers),
       "ratio"},
      {"ixp.pe_util",
       Ratio(D(w.pe_busy_cycles) * npr::kPentiumClock.cycle_ps,
             window_ps * l.routers),
       "ratio"},
      {"net.pool_acquires_per_pkt", Ratio(D(w.pool_acquires), pkts), "acq/pkt"},
      {"net.pool_high_water", static_cast<double>(l.pool_high_water), "count"},
      {"net.pool_exhausted", D(w.pool_exhausted), "count"},
      {"net.rx_drop_ratio", Ratio(D(w.rx_dropped), D(w.rx_offered)),
       "ratio"},
      {"core.exception_frac",
       Ratio(D(w.exceptional), D(w.input_packets)), "ratio"},
      {"core.pentium_frac",
       Ratio(D(w.to_pentium), D(w.input_packets)), "ratio"},
      {"core.queue_max_depth", static_cast<double>(l.queue_max_depth), "count"},
      {"core.queue_drops", D(w.queue_drops), "count"},
      {"core.in_regcyc_per_mp", Ratio(D(w.in_reg_cycles), D(w.in_mps)),
       "cyc/mp"},
      {"core.out_regcyc_per_mp",
       Ratio(D(w.out_reg_cycles), D(w.out_mps)), "cyc/mp"},
      {"core.out_idle_iters_per_pkt",
       Ratio(D(w.out_idle_iters), D(w.forwarded)), "iter/pkt"},
      {"route.cache_hit_ratio",
       Ratio(D(w.cache_hits),
             D(w.cache_hits) + D(w.cache_misses)),
       "ratio"},
      {"route.lookup_ns", per_call_ns("replay.route_lookup", t.replay.lookups_per_batch), "ns"},
      {"vrp.run_ns", per_call_ns("replay.vrp_run", t.replay.vrp_runs_per_batch), "ns"},
      {"vrp.install_ms", installs.empty() ? 0 : Median(installs) / 1e6, "ms"},
      {"vrp.traps", D(w.vrp_traps), "count"},
      // Ladder episodes span the whole run (the flood starts in the warm-up
      // and recovery comes in the drain), so these four count the run.
      {"overload.escalations", D(u.totals.gov_escalations), "count"},
      {"overload.shed_ratio", Ratio(D(w.gov_shed), D(w.rx_offered)),
       "ratio"},
      {"fault.injected", D(u.totals.fault_injected), "count"},
      {"health.recoveries", D(u.totals.health_recoveries), "count"},
      {"health.ctrl_retries", D(u.totals.ctrl_retries), "count"},
      {"cluster.fabric_frames_per_pkt", Ratio(D(w.fabric_frames), pkts),
       "frames/pkt"},
      {"cluster.gate_dropped", D(w.gate_dropped), "count"},
      {"alloc.steady_per_kpkt", Ratio(D(w.allocs), pkts / 1e3), "allocs/kpkt"},
      {"obs.overhead_ratio", Ratio(t.window_s(), untraced_window_s), "x"},
      {"obs.records", static_cast<double>(t.observer_records), "count"},
  };
}

void PrintSelfTimes(const SpanTrace& spans) {
  for (const auto& [name, st] : spans.SelfTimes()) {
    std::printf("span %-24s count=%-8" PRIu64 " total_ms=%.3f self_ms=%.3f\n", name.c_str(),
                st.count, static_cast<double>(st.total_ns) / 1e6,
                static_cast<double>(st.self_ns) / 1e6);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: npr_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  const WorkloadInfo* info = FindWorkload(args.workload);
  if (info == nullptr) {
    std::fprintf(stderr, "npr_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Host time from a Debug or sanitizer build is not comparable, and the
  // allocation counter (bench/alloc_count.cc) is compiled out there.
  bool release = true;
#ifndef NDEBUG
  release = false;
#endif
  if (!release || SanitizedBuild()) {
    std::fprintf(stderr, "npr_bench: refusing a %s%s build; build with CMAKE_BUILD_TYPE=Release\n",
                 NPR_BENCH_BUILD_TYPE, SanitizedBuild() ? " sanitizer" : "");
    return 2;
  }

  // The end-to-end window of every workload runs on one thread. A sharded
  // workload runs again at t=N (traced run, speedup, determinism): at four
  // threads its barrier stalls whenever the host deschedules a worker, and
  // slice_ms_p99 swung 1.6x from run to run on the reference host.
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int parallel = info->sharded ? std::max(2, std::min(4, nproc)) : 1;
  std::printf(
      "host nproc=%d compiler=\"%s\" build_type=%s npr_obs=%s threads=1 traced_threads=%d\n",
      nproc, __VERSION__, NPR_BENCH_BUILD_TYPE, ObsCompiledIn() ? "on" : "off", parallel);
  std::printf("workload %s seed=%" PRIu64 " seconds=%g trace=%d why=\"%s\"\n", info->name,
              args.seed, args.seconds, args.trace ? 1 : 0, info->why);

  const Inputs inputs = GenerateInputs(info->name, args.seed);
  const Plan plan = MakePlan(*info, args.seconds, kBlockSlices, kBlocks);
  std::printf("plan warmup_ms=%g window_ms=%g slices=%d blocks=%d slice_us=%g drain_ms=%g\n",
              static_cast<double>(plan.warmup_ps) / npr::kPsPerMs,
              static_cast<double>(plan.window_ps()) / npr::kPsPerMs, plan.slices, plan.blocks,
              static_cast<double>(plan.slice_ps) / npr::kPsPerUs,
              static_cast<double>(plan.drain_ps) / npr::kPsPerMs);

  const Options serial;
  Options par;
  par.threads = parallel;
  const RunResult u = RunOnce(*info, inputs, plan, serial, kSetups, false);
  std::vector<std::string> failures = u.failures;
  auto same_run = [&](const RunResult& a, const RunResult& b) {
    if (a.fingerprint != b.fingerprint) {
      failures.push_back(std::string(info->name) + " differs at t=1 and t=" +
                         std::to_string(parallel) + ":\n  " + a.fingerprint + "\n  " +
                         b.fingerprint);
    }
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(u, plan);
    std::printf("setup_s samples:");
    for (double s : u.setup_s) {
      std::printf(" %.6f", s);
    }
    std::printf("\n");
    // The sharded engine must give the same run at any thread count; a
    // short run checks it here, the traced mode checks the full window.
    if (info->sharded) {
      Plan short_plan = plan;
      short_plan.warmup_ps = npr::kPsPerMs / 2;
      short_plan.slices = 50;
      short_plan.blocks = 1;
      short_plan.slice_ps = 10 * npr::kPsPerUs;
      same_run(RunOnce(*info, inputs, short_plan, serial, 1, false),
               RunOnce(*info, inputs, short_plan, par, 1, false));
    }
  } else {
    // Host-time ratios compare runs at the same thread count: the traced
    // run against an untraced one, t=1 against t=N.
    const RunResult* untraced = &u;
    RunResult un;
    if (info->sharded) {
      un = RunOnce(*info, inputs, plan, par, 1, false);
      same_run(u, un);
      untraced = &un;
    }
    SpanTrace spans;
    spans.set_run(1);
    Options traced = par;
    traced.trace = &spans;
    const RunResult t = RunOnce(*info, inputs, plan, traced, 1, true);
    failures.insert(failures.end(), t.failures.begin(), t.failures.end());
    metrics = PerLayer(u, t, spans, plan, untraced->window_s(),
                       info->sharded ? Ratio(u.window_s(), un.window_s()) : 0, parallel);
    PrintSelfTimes(spans);
    if (!args.trace_out.empty()) {
      if (spans.Write(args.trace_out)) {
        std::printf("spans written to %s (%zu spans)\n", args.trace_out.c_str(),
                    spans.spans().size());
      } else {
        failures.push_back("cannot write spans to " + args.trace_out);
      }
    }
  }

  const uint64_t failed = u.offered - std::min(u.offered, u.delivered);
  std::printf("digest %s 0x%016" PRIx64 "\n", info->name, u.digest);
  std::printf("conforming offered=%" PRIu64 " delivered=%" PRIu64 " loss_ratio=%.9f\n", u.offered,
              u.delivered, Ratio(static_cast<double>(failed), static_cast<double>(u.offered)));
  PrintMetrics(metrics);
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  std::printf("%s\n", Json(correct, std::max<uint64_t>(1, u.offered), failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
