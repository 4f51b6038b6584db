// Tests for the benchmark's own code: percentile selection, gap-free slice
// timing, span self time, and every workload completing its checks at a
// tiny length.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestPercentileSelection() {
  const std::vector<double>& ladder = PercentileLadder();
  // p99 of 1000 samples leaves exactly 10 above it; 999 leave only 9.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(HighestSupportedPercentile(1000, ladder) == 99);
  EXPECT(HighestSupportedPercentile(999, ladder) == 90);
  EXPECT(HighestSupportedPercentile(10000, ladder) == 99.9);
  EXPECT(HighestSupportedPercentile(100000, ladder) == 99.99);
  EXPECT(HighestSupportedPercentile(20, ladder) == 50);
  EXPECT(HighestSupportedPercentile(19, ladder) == 0);
  EXPECT(HighestSupportedPercentile(0, ladder) == 0);

  // Nearest rank on 1..1000: p50 is 500, p99 is 990.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT(Percentile(v, 50) == 500);
  EXPECT(Percentile(v, 99) == 990);
  const Distribution d = Summarize(v);
  EXPECT(d.n == 1000 && d.p50 == 500 && d.top_p == 99 && d.top == 990);
  v.pop_back();  // 999 samples: the top supported percentile drops to p90
  EXPECT(Summarize(v).top_p == 90);
}

void TestSliceTimerTilesTheWindow() {
  SliceTimer timer;
  timer.Start();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 200; ++i) {
    for (int k = 0; k < 1000 * (i % 7); ++k) {
      sink = sink + static_cast<uint64_t>(k);
    }
    timer.Mark();
  }
  EXPECT(timer.slices() == 200);
  int64_t sum = 0;
  for (size_t i = 0; i < timer.slices(); ++i) {
    EXPECT(timer.slice_ns(i) >= 0);
    sum += timer.slice_ns(i);
  }
  EXPECT(sum == timer.total_ns());
  // One segment: the slices add up to the wall time between the first and
  // the last boundary.
  const int64_t before = HostNowNs();
  timer.Start();
  for (int i = 0; i < 50; ++i) {
    timer.Mark();
  }
  const int64_t after = HostNowNs();
  EXPECT(timer.slices() == 50);
  EXPECT(timer.total_ns() <= after - before);
  // Untimed work between segments is not counted.
  const int64_t first = timer.total_ns();
  volatile uint64_t spin = 0;
  for (int k = 0; k < 2000000; ++k) {
    spin = spin + 1;
  }
  timer.Resume();
  timer.Mark();
  EXPECT(timer.slices() == 51);
  EXPECT(timer.total_ns() - first == timer.slice_ns(50));
  EXPECT(timer.slice_ns(50) < HostNowNs() - after);
}

void TestSpanSelfTime() {
  SpanTrace trace;
  {
    ScopedSpan outer(&trace, "outer");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan inner(&trace, "inner");
    }
  }
  const auto self = trace.SelfTimes();
  EXPECT(self.at("outer").count == 1);
  EXPECT(self.at("inner").count == 3);
  const int64_t inner_total = self.at("inner").total_ns;
  EXPECT(self.at("outer").self_ns == self.at("outer").total_ns - inner_total);
  EXPECT(trace.spans()[1].parent == 0);
  ScopedSpan none(nullptr, "ignored");  // the untraced path records nothing
  EXPECT(trace.spans().size() == 4);
}

void TestWorkloadsPassAtTinyLength() {
  for (const WorkloadInfo& info : AllWorkloads()) {
    const Inputs inputs = GenerateInputs(info.name, 7);
    const Plan plan = MakePlan(info, 0.01, 20, 2);
    Options opts;
    opts.threads = 2;
    const RunResult r = RunOnce(info, inputs, plan, opts, 1, false);
    for (const std::string& f : r.failures) {
      std::printf("  %s: %s\n", info.name, f.c_str());
    }
    EXPECT(r.failures.empty());
    EXPECT(r.timer.slices() == static_cast<size_t>(plan.slices) && plan.slices >= 40);
    EXPECT(r.blocks.size() == 2);
    EXPECT(r.window.events > 0);
    EXPECT(r.window.dispositioned > 0);
    // Same seed, same simulated run.
    const RunResult again = RunOnce(info, inputs, plan, opts, 1, false);
    EXPECT(again.digest == r.digest);
    if (std::string(info.name) == "cluster8") {
      Options t1 = opts;
      t1.threads = 1;
      EXPECT(RunOnce(info, inputs, plan, t1, 1, false).fingerprint == r.fingerprint);
    }
    std::printf("ok %s digest=%016llx\n", info.name, static_cast<unsigned long long>(r.digest));
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileSelection();
  perfbench::TestSliceTimerTilesTheWindow();
  perfbench::TestSpanSelfTime();
  perfbench::TestWorkloadsPassAtTinyLength();
  if (perfbench::g_failures != 0) {
    std::printf("%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("all perfbench self-tests passed\n");
  return 0;
}
