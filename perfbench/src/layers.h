// Per-layer metrics of the traced run. Every workload reports the full set;
// a layer that does no work on a workload reports 0 (for example net.* on
// the in-process replays, policies.* on served-hit).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "clients.h"
#include "measure.h"

namespace perfbench {

struct LayerRun {
  LayerCounters delta;          // counters over the traced region
  uint64_t ops = 0;             // trace ops of the traced region
  double wall_s = 0.0;          // wall time of the traced region
  int threads = 1;              // host threads driving the cache
  std::vector<SpanTotals> spans = std::vector<SpanTotals>(kNumSpanNames);
  uint64_t get_steps = 0;
  uint64_t set_steps = 0;
  uint64_t exec_calls = 0;
  int clients = 1;              // cache clients (reactors or replay clients)
  uint64_t capacity = 0;        // cache capacity in objects
  uint64_t table_slots = 0;     // hash-table slots
  bool served = false;          // behind net::Server (net.* applies)
  bool engine = false;          // driven by a replay engine (sim.engine_self applies)
  double system_cpu_ns = 0.0;   // CPU of the threads doing the system's work
  double system_sys_ns = 0.0;   // ... of which in the kernel

  // net (served workloads)
  double parse_ns_per_cmd = 0.0;
  double conn_self_ns_per_cmd = 0.0;
  double reactor_skew = 0.0;
  uint64_t shed_ops = 0;
  uint64_t error_replies = 0;

  double get_p99_us = 0.0;      // wall latency tails (see README)
  double set_p99_us = 0.0;
  double virt_p50_us = 0.0;     // modelled op latency percentiles
  double virt_p99_us = 0.0;
  double verb_ns_1t = 0.0;
  double verb_ns_4t = 0.0;
  double gen_s = 0.0;
  double loadgen_cpu_frac = 0.0;
  double loadgen_late_p99_us = 0.0;
  double trace_overhead = 0.0;
  double failed_frac = 0.0;
};

// Folds one client's recorder totals into run->spans.
void MergeSpans(const SpanRecorder& recorder, LayerRun* run);

void ReportLayers(const LayerRun& run, Report* report);

// Wall ns per rdma::Verbs::PostRead + WaitWr of one hash bucket, with
// `threads` threads posting concurrently to one memory node (median of
// several timed rounds of `seconds` each).
double VerbNs(int threads, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
