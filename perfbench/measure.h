// Host-time measurement primitives for the benchmark: percentile selection,
// gap-free slice timing, and the in-memory span trace of the traced run.
//
// Everything here is header-only and free of simulator types so that
// selftest.cc can check it in isolation.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Rank (1-based) of the p-th percentile among n samples, nearest-rank
// definition: the smallest rank whose share of samples reaches p.
inline size_t PercentileRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Samples strictly above the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) { return n == 0 ? 0 : n - PercentileRank(n, p); }

// The highest percentile of `ladder` (ascending) that leaves at least
// `min_beyond` samples above it; 0 when even the lowest does not.
inline double HighestSupportedPercentile(size_t n, const std::vector<double>& ladder,
                                         size_t min_beyond = 10) {
  double best = 0;
  for (double p : ladder) {
    if (n > 0 && SamplesBeyond(n, p) >= min_beyond) {
      best = p;
    }
  }
  return best;
}

// The ladder every timing distribution is reported against.
inline const std::vector<double>& PercentileLadder() {
  static const std::vector<double> ladder = {50, 90, 99, 99.9, 99.99};
  return ladder;
}

// Nearest-rank percentile of unsorted samples (copied; the input is kept).
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const size_t k = PercentileRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(k), samples.end());
  return samples[k];
}

inline double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

// A timing distribution as the benchmark reports it: the median and the
// highest percentile with at least ten samples beyond it, with the count.
struct Distribution {
  size_t n = 0;
  double p50 = 0;
  double top_p = 0;  // 0: too few samples for any percentile above the median
  double top = 0;
};

inline Distribution Summarize(const std::vector<double>& samples) {
  Distribution d;
  d.n = samples.size();
  d.p50 = Percentile(samples, 50);
  d.top_p = HighestSupportedPercentile(samples.size(), PercentileLadder());
  d.top = d.top_p > 0 ? Percentile(samples, d.top_p) : 0;
  return d;
}

// Times consecutive slices of a window. Every boundary is one clock read
// shared by the slice before and the slice after it, so within a segment
// the slices tile it exactly: no gap, no overlap. Resume() opens a new
// segment after untimed work (an episode's set-up); the window's host time
// is the sum of the slices.
class SliceTimer {
 public:
  void Start() {
    slices_ns_.clear();
    total_ns_ = 0;
    last_ = HostNowNs();
  }
  void Resume() { last_ = HostNowNs(); }
  // Closes the current slice and opens the next.
  void Mark() {
    const int64_t now = HostNowNs();
    slices_ns_.push_back(now - last_);
    total_ns_ += now - last_;
    last_ = now;
  }

  size_t slices() const { return slices_ns_.size(); }
  int64_t slice_ns(size_t i) const { return slices_ns_[i]; }
  int64_t total_ns() const { return total_ns_; }

  std::vector<double> SlicesMs() const {
    std::vector<double> out;
    out.reserve(slices_ns_.size());
    for (int64_t ns : slices_ns_) {
      out.push_back(static_cast<double>(ns) / 1e6);
    }
    return out;
  }

 private:
  std::vector<int64_t> slices_ns_;
  int64_t total_ns_ = 0;
  int64_t last_ = 0;
};

// One traced call into a layer. Spans nest: `parent` is the index of the
// span that was open when this one began (-1 at the root). Spans of one
// workload run share `run`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t run = 0;
};

struct SelfTime {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the time covered by direct children
};

// Spans kept in memory for the whole run and written out at the end, so
// recording costs two clock reads and a vector append.
class SpanTrace {
 public:
  void set_run(uint32_t run) { run_ = run; }

  int Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run_;
    s.start_ns = HostNowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = HostNowNs();
    // Spans close innermost-first; anything above `id` was left open by an
    // early return and closes here too.
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == id) {
        break;
      }
      spans_[static_cast<size_t>(top)].end_ns = spans_[static_cast<size_t>(id)].end_ns;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: count, total and self time.
  std::map<std::string, SelfTime> SelfTimes() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, SelfTime> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      SelfTime& st = out[spans_[i].name];
      ++st.count;
      st.total_ns += dur;
      st.self_ns += dur - child_ns[i];
    }
    return out;
  }

  // Durations (ns) of every span called `name`.
  std::vector<double> DurationsNs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  // One span per line: run, index, parent, name, start and end (ns from the
  // first span's start).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "run\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.run, i, s.parent, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint32_t run_ = 0;
};

// Records a span for its scope when a trace is given; does nothing with
// nullptr, which is how the untraced run uses the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
