// Experiment runner: replays a workload trace against a set of cache clients
// on one or more host threads and reports throughput / latency / hit rate in
// virtual time.
//
// Time accounting: every client accumulates busy time on its virtual clock;
// the NIC and controller-CPU models advance their own FCFS horizons. The
// elapsed time of a phase is
//   max( max_i Δbusy_i , Δnic_horizon , Δcpu_horizon )
// and throughput is ops / elapsed. A Get miss pays the configured miss
// penalty (the paper's 500 us distributed-storage fetch) and re-inserts the
// object with Set.
#ifndef DITTO_SIM_RUNNER_H_
#define DITTO_SIM_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rdma/node.h"
#include "sim/client_iface.h"
#include "workloads/trace.h"

namespace ditto::sim {

// One step of a deterministic elastic-scaling schedule: when the replay
// reaches request index `measure_begin + at_op_fraction * measured_ops`, the
// cache's aggregate capacity becomes `capacity_objects`. Every client applies
// a step when its own stream crosses the index; under kPartitioned each
// client applies its even share of the aggregate, so the whole trajectory is
// invariant to the thread count.
struct ResizeStep {
  double at_op_fraction = 0.0;   // in [0, 1), fraction of the measured replay
  uint64_t capacity_objects = 0; // aggregate capacity after the step
};

// How RunTrace splits the trace among its clients.
enum class Placement {
  // Client c replays the strided stream begin+c, begin+c+n, ... All clients
  // see the whole key space, so clients backed by one deployment share (and,
  // on several threads, race on) its slots.
  kShared,
  // Client s replays, in trace order, the requests whose key ShardForKey
  // maps to s. Each client is meant to own a private cache (ideally its own
  // memory node), so per-client results do not depend on the thread count.
  kPartitioned,
};

struct RunOptions {
  size_t value_bytes = 232;
  // When > value_bytes, each key gets a deterministic (hash-derived) value
  // size in [value_bytes, value_bytes_max] — used by size-aware-policy
  // experiments (SIZE, GDS, GDSF).
  size_t value_bytes_max = 0;
  double miss_penalty_us = 0.0;  // 0 = no penalty; misses still Set
  bool set_on_miss = true;
  // Fraction of each client's shard replayed as warmup (not measured).
  double warmup_fraction = 0.0;

  Placement placement = Placement::kShared;
  // Host worker threads, clamped to [1, clients]. Worker t drives clients
  // t, t+T, ... and interleaves them with a seeded burst model; worker 0 is
  // the calling thread.
  int threads = 1;
  // When > 0, every client doorbell-batches its async metadata verbs with a
  // chain of this many posts (duplicate addresses coalesce on the wire).
  size_t batch_ops = 0;

  // Completion-queue verb pipelining: each client keeps up to pipeline_depth
  // independent ops in flight, retiring them in issue order. Ops still
  // *execute* (and mutate cache state) strictly in issue order — pipelining
  // overlaps only their virtual-time verb latencies via the clients' CQ model
  // (CacheClient::ExecutePipelined) — so hit rates, verb counts, and eviction
  // decisions are bit-identical for every depth; only throughput/latency
  // change. Depth 1 (the default) replays through the classic blocking path;
  // pipeline_force routes depth-1 replay through the pipelined issue loop
  // instead, which the equivalence tests use to pin that both paths agree
  // bit-for-bit. Clients without a CQ model degrade to depth-1 behaviour.
  // Fused multi-get runs serialize with the pipeline (the pipeline drains
  // before a fused run issues).
  size_t pipeline_depth = 1;
  bool pipeline_force = false;

  // Typed-op replay knobs. op_mix deterministically rewrites a fraction of
  // the trace's Gets into kDelete / kExpire / kMultiGet (a pure function of
  // the request index, so every placement and thread count replays the same
  // op stream). Consecutive kMultiGet requests of one client fuse into a
  // pipelined multi-get of up to multiget_batch keys; kExpire arms
  // expire_ttl_ticks of TTL.
  workload::OpMix op_mix;
  size_t multiget_batch = 8;
  uint64_t expire_ttl_ticks = 64;

  // Elastic scaling schedule (empty = fixed capacity). Applied to the
  // measured region only; steps are sorted by at_op_fraction before use.
  // Each step calls CacheClient::ResizeCapacity — clients without a resize
  // path ignore it, and the phase trajectory in RunResult still reports the
  // per-phase hit rates.
  std::vector<ResizeStep> resize_schedule;

  // Cluster lifecycle schedule (empty = stable membership), mirroring
  // resize_schedule: when the measured replay crosses a step's index, every
  // client calls CacheClient::ApplyLifecycle (cluster deployments apply it
  // globally-once; other clients ignore it). Steps are sorted by
  // at_op_fraction before use and applied at identical request indices
  // under every placement, like resizes.
  std::vector<LifecycleStep> lifecycle_schedule;

  // When > 0, RunTrace samples the measured region's aggregate hit rate into
  // RunResult::recovery every recovery_window_ops Get outcomes — the
  // fine-grained trajectory fault/lifecycle experiments need to see hit-rate
  // collapse and recovery around a schedule step. Windows aggregate across
  // all clients in replay order and are bit-deterministic; they are sampled
  // only when one worker drives the replay (ignored for threads > 1).
  size_t recovery_window_ops = 0;

  size_t ValueBytesFor(uint64_t key) const;
};

// One recovery-trajectory sample: Get outcomes of one window of the measured
// replay (see RunOptions::recovery_window_ops).
struct RecoverySample {
  uint64_t gets = 0;
  uint64_t hits = 0;
  double HitRate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

// Per-phase slice of a run, where phases are delimited by the resize
// schedule: phase 0 runs at the deployment's initial capacity
// (capacity_objects reported as 0), phase p >= 1 after schedule step p-1.
struct PhaseResult {
  uint64_t capacity_objects = 0;  // 0 = initial (pre-first-step) capacity
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate = 0.0;
};

struct RunResult {
  uint64_t ops = 0;  // trace requests replayed (a miss's re-insert Set is not an extra op)
  double elapsed_s = 0.0;
  double throughput_mops = 0.0;
  double hit_rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t deletes = 0;
  uint64_t evictions = 0;
  uint64_t expired = 0;
  uint64_t nic_messages = 0;
  uint64_t nic_doorbells = 0;
  uint64_t rpc_ops = 0;
  // Contention counters (see ClientCounters): nonzero only when clients race
  // on shared slots, i.e. kShared replay on several threads over one pool.
  uint64_t cas_failures = 0;
  uint64_t insert_retries = 0;
  // Host wall-clock view of the measured region. The virtual-time fields
  // above model the simulated network and are bit-deterministic; these four
  // measure how fast the replay loop itself runs on the host, which is the
  // number that moves when the hot path gets faster. wall_s covers the
  // measured replay plus the Finish() drain; threads is the number of host
  // workers that drove it (RunOptions::threads after clamping).
  double wall_s = 0.0;
  double wall_mops = 0.0;
  int threads = 1;
  double ops_per_core_mops = 0.0;  // wall_mops / threads
  // Hit-rate trajectory across the resize schedule (resize_schedule.size()+1
  // entries; a single entry covering the whole run when no schedule is set).
  // Deterministic under kPartitioned for any thread count, and under
  // kShared with one thread.
  std::vector<PhaseResult> phases;
  // Windowed hit-rate trajectory of the measured region (empty unless
  // RunOptions::recovery_window_ops > 0 and one worker drove the replay).
  // The final window may be short. Deterministic for a fixed (trace,
  // options, fault seed).
  std::vector<RecoverySample> recovery;
};

// Replays `trace` over `clients`, split by options.placement and driven by
// options.threads host workers. `nodes` provide the NIC/CPU horizons that
// bound the elapsed time (the memory nodes the clients talk to).
//
// Under kPartitioned, and under kShared with one thread, the replay order of
// every client's stream is fixed, so a deployment whose clients own private
// memory nodes reproduces the whole RunResult bit for bit, and hit rates
// are identical for any thread count under kPartitioned. Under kShared
// with several threads, clients backed by the SAME dm::MemoryPool (each
// with its own ClientContext) race for real: slot CAS conflicts,
// duplicate-insert resolution and eviction races take their concurrent
// paths, and results are not bit-deterministic, though aggregate counters
// are exact sums of what each client observed.
//
// `per_client`, when non-null, receives one RunResult per client: the length
// of its measured stream as ops, its counters, hit rate, latency
// percentiles, and its own busy time as elapsed_s.
RunResult RunTrace(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                   const std::vector<rdma::RemoteNode*>& nodes, const RunOptions& options,
                   std::vector<RunResult>* per_client = nullptr);

// Single-memory-node convenience overload.
RunResult RunTrace(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                   rdma::RemoteNode* node, const RunOptions& options);

// Normal form of a resize schedule as the replay engine applies it: steps
// stably sorted by at_op_fraction with fractions clamped to [0, 1]. Oracle
// replays (sim/elastic_oracle.h) use the same normal form so every consumer
// crosses phases at identical request indices.
std::vector<ResizeStep> NormalizedResizeSchedule(std::vector<ResizeStep> schedule);

// Normal form of a lifecycle schedule (same sort/clamp rules, so lifecycle
// and resize steps fire at indices computed identically).
std::vector<LifecycleStep> NormalizedLifecycleSchedule(std::vector<LifecycleStep> schedule);

// Absolute trace index at which a (normalized) step fires over the measured
// region [begin, end).
size_t ResizeStepIndex(double at_op_fraction, size_t begin, size_t end);

// Key -> client partition of kPartitioned replay: SeededPartition of the raw
// trace key with the constant seed 1.
uint32_t ShardForKey(uint64_t key, size_t num_shards);

// Convenience: formats a result row.
std::string FormatResult(const std::string& label, const RunResult& r);

}  // namespace ditto::sim

#endif  // DITTO_SIM_RUNNER_H_
