#include "measure.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t NearestRank(std::vector<uint64_t>* samples, int p) {
  const size_t n = samples->size();
  if (n == 0) {
    return 0;
  }
  size_t rank = (static_cast<size_t>(p) * n + 99) / 100;  // ceil(p * n / 100)
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  return *nth;
}

Quantiles QuantilesUs(std::vector<uint64_t>* samples_ns) {
  Quantiles q;
  q.count = samples_ns->size();
  if (q.count == 0) {
    return q;
  }
  const uint64_t p50 = NearestRank(samples_ns, 50);
  const uint64_t p99 = NearestRank(samples_ns, 99);
  q.p50 = static_cast<double>(p50) / 1000.0;
  q.p99 = static_cast<double>(p99) / 1000.0;
  q.beyond_p99 = static_cast<uint64_t>(
      std::count_if(samples_ns->begin(), samples_ns->end(), [p99](uint64_t v) { return v > p99; }));
  return q;
}

void VirtualHistogram::Merge(const VirtualHistogram& other) {
  for (size_t i = 0; i < fine_.size(); ++i) {
    fine_[i] += other.fine_[i];
  }
  for (size_t i = 0; i < coarse_.size(); ++i) {
    coarse_[i] += other.coarse_[i];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

uint64_t VirtualHistogram::PercentileNs(int p) const {
  if (count_ == 0) {
    return 0;
  }
  const uint64_t rank = std::max<uint64_t>((static_cast<uint64_t>(p) * count_ + 99) / 100, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < fine_.size(); ++i) {
    seen += fine_[i];
    if (seen >= rank) {
      return i;
    }
  }
  for (size_t i = 0; i < coarse_.size(); ++i) {
    seen += coarse_[i];
    if (seen >= rank) {
      return i * 1000;
    }
  }
  return (coarse_.size() - 1) * 1000;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void AccumulateSpans(const std::vector<Span>& spans, std::vector<SpanTotals>* totals) {
  // Child intervals of every span, clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      const Span& p = spans[s.parent];
      const int64_t b = std::max(s.start_ns, p.start_ns);
      const int64_t e = std::min(s.end_ns, p.end_ns);
      if (e > b) {
        children[s.parent].emplace_back(b, e);
      }
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_b = 0;
    int64_t cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : kids) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) {
        covered += cur_e - cur_b;
      }
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) {
      covered += cur_e - cur_b;
    }
    if (s.name >= totals->size()) {
      totals->resize(s.name + 1);
    }
    SpanTotals& t = (*totals)[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    t.count++;
    t.total_ns += duration;
    t.self_ns += duration - covered;
  }
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs(pthread_t thread) {
  clockid_t clock;
  if (::pthread_getcpuclockid(thread, &clock) != 0) {
    return 0;
  }
  return ClockNs(clock);
}

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ProcessSysNs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_stime.tv_sec) * 1000000000 +
         static_cast<int64_t>(usage.ru_stime.tv_usec) * 1000;
}

bool TaskCpuTicks(pid_t tid, uint64_t* user_ticks, uint64_t* sys_ticks) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) {
    return false;
  }
  // Fields after the parenthesised command name: state is field 3, utime 14,
  // stime 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) {
      *user_ticks = std::stoull(field);
    } else if (i == 15) {
      *sys_ticks = std::stoull(field);
      return true;
    }
  }
  return false;
}

double TicksPerSecond() { return static_cast<double>(::sysconf(_SC_CLK_TCK)); }

CpuRotation::CpuRotation() {
  if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) {
      cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  for (pid_t tid : pinned_) {
    ::sched_setaffinity(tid, sizeof(allowed_), &allowed_);  // fails if it has exited
  }
}

void CpuRotation::Pin(size_t turn, const std::vector<pid_t>& tids) {
  if (cpus_.empty()) {
    return;
  }
  for (size_t k = 0; k < tids.size(); ++k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(turn + k) % cpus_.size()], &one);
    if (::sched_setaffinity(tids[k], sizeof(one), &one) == 0 &&
        std::find(pinned_.begin(), pinned_.end(), tids[k]) == pinned_.end()) {
      pinned_.push_back(tids[k]);
    }
  }
}

bool SelfTest(std::string* why) {
  auto fail = [why](const std::string& what) {
    *why = what;
    return false;
  };
  // Nearest rank over 1..100: p50 = 50, p99 = 99, one sample beyond p99.
  std::vector<uint64_t> hundred;
  for (uint64_t v = 100; v >= 1; --v) {
    hundred.push_back(v * 1000);
  }
  Quantiles q = QuantilesUs(&hundred);
  if (q.p50 != 50.0 || q.p99 != 99.0 || q.count != 100 || q.beyond_p99 != 1) {
    return fail("nearest-rank over 1..100");
  }
  // Ten samples: rank ceil(9.9) = 10, so p99 is the maximum, none beyond.
  std::vector<uint64_t> ten = {7000, 1000, 3000, 9000, 2000, 10000, 4000, 8000, 6000, 5000};
  q = QuantilesUs(&ten);
  if (q.p50 != 5.0 || q.p99 != 10.0 || q.beyond_p99 != 0) {
    return fail("nearest-rank over ten samples");
  }
  std::vector<uint64_t> one = {42000};
  q = QuantilesUs(&one);
  if (q.p50 != 42.0 || q.p99 != 42.0 || q.count != 1) {
    return fail("nearest-rank over one sample");
  }
  VirtualHistogram hist;
  for (uint64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  hist.Record(500000);  // coarse bucket: 500 us
  if (hist.PercentileNs(50) != 51 || hist.PercentileNs(100) != 500000 ||
      hist.MeanNs() != (5050.0 + 500000.0) / 101.0) {
    return fail("virtual histogram ranks");
  }

  // Nested spans: root [0,100] with children [10,30], [20,40] (overlapping)
  // and [90,120] (clipped at 100): covered 30 + 10, self 60. Grandchild
  // [12,18] under [10,30] leaves that child 14 of self time.
  const std::vector<Span> spans = {
      {0, kNoParent, 1, 0, 100}, {1, 0, 1, 10, 30}, {1, 0, 1, 20, 40},
      {2, 0, 1, 90, 120},        {3, 1, 1, 12, 18},
  };
  std::vector<SpanTotals> totals;
  AccumulateSpans(spans, &totals);
  if (totals.size() != 4 || totals[0].self_ns != 60 || totals[0].total_ns != 100 ||
      totals[1].count != 2 || totals[1].total_ns != 40 || totals[1].self_ns != 34 ||
      totals[2].self_ns != 30 || totals[3].self_ns != 6) {
    return fail("span self time");
  }

  OpTally tally;
  tally.attempted = 1000;
  tally.shed = 3;
  tally.dropped = 2;
  tally.unavailable = 1;
  tally.error_replies = 4;
  tally.never_completed = 10;
  if (tally.failed() != 20 || tally.failed_frac() != 0.02 || OpTally{}.failed_frac() != 0.0) {
    return fail("failed_frac");
  }
  return true;
}

}  // namespace perfbench

