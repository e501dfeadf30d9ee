// Metric arithmetic and host probes shared by every perfbench workload:
// nearest-rank percentiles, span self time, failure accounting, the result
// line, and thread/process CPU readings.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <pthread.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentiles -----------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least p% of all
// samples at or below it (rank ceil(p * n / 100), 1-based). Reorders
// *samples. Returns 0 for an empty set.
uint64_t NearestRank(std::vector<uint64_t>* samples, int p);

struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  uint64_t count = 0;
  uint64_t beyond_p99 = 0;  // samples strictly above the p99 value
};

// p50/p99 of ns samples, converted to microseconds.
Quantiles QuantilesUs(std::vector<uint64_t>* samples_ns);

// Exact virtual-latency histogram: 1 ns buckets up to kFineNs, 1 us buckets
// above. Virtual latencies are integral ns, so percentiles below kFineNs are
// exact. Not thread-safe; one per client.
class VirtualHistogram {
 public:
  static constexpr uint64_t kFineNs = 1 << 17;
  static constexpr uint64_t kCoarseUs = 1 << 16;

  VirtualHistogram() : fine_(kFineNs, 0), coarse_(kCoarseUs, 0) {}
  void Record(uint64_t ns) {
    count_++;
    sum_ns_ += ns;
    if (ns < kFineNs) {
      fine_[ns]++;
    } else {
      coarse_[std::min<uint64_t>(ns / 1000, kCoarseUs - 1)]++;
    }
  }
  void Merge(const VirtualHistogram& other);
  uint64_t count() const { return count_; }
  double MeanNs() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / static_cast<double>(count_);
  }
  // Nearest-rank percentile in ns.
  uint64_t PercentileNs(int p) const;

 private:
  std::vector<uint64_t> fine_;
  std::vector<uint64_t> coarse_;
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
};

double Median(std::vector<double> values);

// --- Spans -----------------------------------------------------------------

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoParent;  // index into the same buffer
  uint64_t op = 0;              // spans of one cache op share an id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the part its children cover
};

// Adds every span of `spans` to totals[span.name]. A span's self time is its
// duration minus the union of its children's intervals clipped to it.
// Parents must precede their children in the buffer.
void AccumulateSpans(const std::vector<Span>& spans, std::vector<SpanTotals>* totals);

// --- Failures --------------------------------------------------------------

// Outcome tally of a run's cache ops. Every op that did not complete with a
// normal reply counts as failed.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t shed = 0;             // -LOADSHED
  uint64_t dropped = 0;          // -OOM / OpStatus::kDropped
  uint64_t unavailable = 0;      // -UNAVAILABLE / OpStatus::kUnavailable
  uint64_t error_replies = 0;    // any other error reply
  uint64_t never_completed = 0;  // no reply before the drain deadline

  uint64_t failed() const {
    return shed + dropped + unavailable + error_replies + never_completed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) / static_cast<double>(attempted);
  }
};

// --- Result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

  // Records a failed output check; any failure makes the run incorrect.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // The one-line JSON result (all digits of every value).
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// --- Host probes -----------------------------------------------------------

pid_t CurrentTid();
int64_t ThreadCpuNs(pthread_t thread);
int64_t ProcessCpuNs();
int64_t ProcessSysNs();  // kernel part of ProcessCpuNs (getrusage resolution)

// User and kernel CPU of one thread of this process, in clock ticks, from
// /proc/self/task/<tid>/stat. Returns false if unreadable.
bool TaskCpuTicks(pid_t tid, uint64_t* user_ticks, uint64_t* sys_ticks);
double TicksPerSecond();

// Pins a set of busy threads of this process to distinct allowed CPUs and
// moves the assignment one CPU along on every turn; restores each pinned
// thread's original CPU mask when destroyed. On a shared virtual machine one
// CPU can run the same code up to ~40% slower than another at the same
// moment, and the scheduler may put two busy threads on one CPU; rotating a
// fixed placement spreads both over a run's samples evenly.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Thread tids[k] runs on allowed CPU (turn + k) mod (number allowed).
  void Pin(size_t turn, const std::vector<pid_t>& tids);

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::vector<pid_t> pinned_;
};

// Runs the arithmetic above on hand-built inputs; false (with *why) on the
// first mismatch.
bool SelfTest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
