// The benchmark's view into a Ditto deployment: pass-through CacheClient
// wrappers that sit between the code issuing ops (the replay engine or a
// server reactor) and the real sim::DittoCacheClient, and the span recorder
// of the traced run.
//
//   CountingClient  forwards every batch and tallies ops, failed statuses
//                   and each result's virtual latency; reads no clock. End-to-end
//                   runs use it.
//   TimedClient     also times each call in wall time (the in-process
//                   latency pass).
//   TracedClient    drives core::DittoClient's Get/Set step machines itself
//                   (DittoClient::Get/Set are exactly these Start/Step
//                   loops) and records a span around every call into a
//                   layer: the batch, the op, and each Step* call, named by
//                   the stage the op was in before the call.
//
// All three make the same calls into the cache, so a traced run does the
// same cache work as an untraced one.
#ifndef PERFBENCH_CLIENTS_H_
#define PERFBENCH_CLIENTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ditto_client.h"
#include "dm/pool.h"
#include "measure.h"
#include "sim/adapters.h"
#include "sim/client_iface.h"

namespace perfbench {

namespace core = ditto::core;
namespace dm = ditto::dm;
namespace rdma = ditto::rdma;
namespace sim = ditto::sim;

enum SpanName : uint32_t {
  kSpanNetConn,  // net::Connection::ProcessInput
  kSpanSimExec,  // sim::CacheClient::ExecuteBatch
  kSpanCoreGet,  // one Get: StartGet + every StepGet
  kSpanCoreSet,  // one Set: StartSet + every StepSet
  kSpanGetStart,
  kSpanGetMatch,   // GetOp::Stage::kMatchSlot
  kSpanGetVerify,  // GetOp::Stage::kVerifyObject
  kSpanGetMiss,    // GetOp::Stage::kMissHistory
  kSpanSetStart,
  kSpanSetMatch,          // SetOp::Stage::kMatchForUpdate
  kSpanSetUpdateAlloc,    // SetOp::Stage::kUpdateAlloc
  kSpanSetUpdatePublish,  // SetOp::Stage::kUpdatePublish
  kSpanSetReserve,        // SetOp::Stage::kInsertReserve
  kSpanSetEvict,          // SetOp::Stage::kInsertEvict
  kSpanSetAlloc,          // SetOp::Stage::kInsertAlloc
  kSpanSetPublish,        // SetOp::Stage::kInsertPublish
  kNumSpanNames,
};

const char* SpanNameString(uint32_t name);

// Per-thread span buffer. Spans are kept in memory; whenever no span is
// open and the buffer holds a chunk, it is folded into per-name totals
// (self time per AccumulateSpans). The first chunk is retained whole so the
// run can write raw spans out at the end.
class SpanRecorder {
 public:
  static constexpr size_t kChunk = 1 << 16;

  SpanRecorder() {
    spans_.reserve(kChunk + 64);
    stack_.reserve(16);
  }

  uint32_t Begin(uint32_t name, uint64_t op) {
    const auto index = static_cast<uint32_t>(spans_.size());
    spans_.push_back(
        Span{name, stack_.empty() ? kNoParent : stack_.back(), op, NowNs(), 0});
    stack_.push_back(index);
    return index;
  }

  void End(uint32_t index) {
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
    if (stack_.empty() && spans_.size() >= kChunk) {
      Flush();
    }
  }

  uint64_t NextOp() { return ++last_op_; }

  // Folds buffered spans into the totals. Call only with no span open.
  void Flush();

  const std::vector<SpanTotals>& totals() const { return totals_; }
  const std::vector<Span>& retained() const { return retained_; }
  // Lets the next full chunk be the one retained.
  void DropRetained() { retained_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  std::vector<SpanTotals> totals_ = std::vector<SpanTotals>(kNumSpanNames);
  std::vector<Span> retained_;
  uint64_t last_op_ = 0;
};

// Tally shared by every wrapper.
struct Observations {
  uint64_t ops = 0;
  uint64_t failed = 0;  // any status but kHit, kMiss or kStored
  uint64_t expert_switches = 0;
};

class ObservedClient : public sim::CacheClient {
 public:
  static constexpr uint64_t kExpertSampleOps = 4096;

  explicit ObservedClient(sim::DittoCacheClient* inner) : inner_(inner) {}

  rdma::ClientContext& ctx() override { return inner_->ctx(); }
  sim::ClientCounters counters() const override { return inner_->counters(); }
  void Finish() override { inner_->Finish(); }
  void ResetForMeasurement() override { inner_->ResetForMeasurement(); }
  void SetBatchOps(size_t ops) override { inner_->SetBatchOps(ops); }

  core::DittoClient& ditto() { return inner_->ditto(); }
  const Observations& observed() const { return observed_; }
  VirtualHistogram& virt() { return virt_; }
  // ExecuteBatch calls so far; readable from any thread. Reading it
  // acquires what the executing thread wrote up to that call.
  uint64_t calls() const { return calls_.load(std::memory_order_acquire); }
  // Virtual latencies are recorded only while this is on (served runs keep
  // them to the closed-loop phase).
  void set_record_virt(bool on) { record_virt_.store(on, std::memory_order_relaxed); }

  // Samples the leading expert of `controller` every kExpertSampleOps ops;
  // each change of leader counts one expert switch.
  void SampleExperts(core::AdaptiveController* controller) { controller_ = controller; }

  // The thread that executed the first batch (a server reactor).
  pthread_t thread() const { return thread_.load(std::memory_order_acquire); }
  pid_t tid() const { return tid_.load(std::memory_order_acquire); }

 protected:
  void Observe(std::span<const sim::CacheOp> ops, const sim::CacheResult* results);

  sim::DittoCacheClient* inner_;

 private:
  Observations observed_;
  VirtualHistogram virt_;
  std::atomic<bool> record_virt_{true};
  std::atomic<uint64_t> calls_{0};
  core::AdaptiveController* controller_ = nullptr;
  int leader_ = -1;
  std::atomic<pthread_t> thread_{};
  std::atomic<pid_t> tid_{0};
};

class CountingClient final : public ObservedClient {
 public:
  using ObservedClient::ObservedClient;
  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override {
    inner_->ExecuteBatch(ops, results);
    Observe(ops, results);
  }
};

// Times every kEvery-th ExecuteBatch call (wall ns, by the kind of its
// first op). Timing every call slows a replay by 7-9%; sampling keeps the
// cost within the host's noise, so the same pass gives both throughput and
// latency.
class TimedClient final : public ObservedClient {
 public:
  static constexpr uint64_t kEvery = 8;

  using ObservedClient::ObservedClient;
  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override;
  std::vector<uint64_t>& get_ns() { return get_ns_; }
  std::vector<uint64_t>& set_ns() { return set_ns_; }

 private:
  std::vector<uint64_t> get_ns_;
  std::vector<uint64_t> set_ns_;
  uint64_t untimed_ = 0;  // calls since the last timed one
};

class TracedClient final : public ObservedClient {
 public:
  using ObservedClient::ObservedClient;
  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override;

  SpanRecorder& recorder() { return recorder_; }
  uint64_t get_steps() const { return get_steps_; }
  uint64_t set_steps() const { return set_steps_; }

 private:
  void TracedGet(const sim::CacheOp& op, uint64_t id, sim::CacheResult* result);
  void TracedSet(const sim::CacheOp& op, uint64_t id, sim::CacheResult* result);

  SpanRecorder recorder_;
  uint64_t get_steps_ = 0;
  uint64_t set_steps_ = 0;
};

enum class Wrap { kCount, kTime, kTrace };

// One pool + controller + `clients` Ditto clients, each behind a wrapper.
struct Deployment {
  std::unique_ptr<dm::MemoryPool> pool;
  std::unique_ptr<core::DittoServer> server;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> inner;
  std::vector<std::unique_ptr<ObservedClient>> clients;
  std::vector<sim::CacheClient*> raw;

  rdma::RemoteNode* node() { return &pool->node(); }
};

struct DeployOptions {
  uint64_t capacity = 0;
  int clients = 1;
  bool validate_inserts = false;
  Wrap wrap = Wrap::kCount;
};

std::unique_ptr<Deployment> Deploy(const DeployOptions& options);

// Counters every layer already exposes, summed over a deployment.
struct LayerCounters {
  // rdma (per client context and per memory node)
  uint64_t reads = 0, writes = 0, atomics = 0, rpcs = 0;
  uint64_t nic_msgs = 0, nic_bytes = 0, doorbells = 0;
  uint64_t nic_horizon_ns = 0, cpu_horizon_ns = 0;
  uint64_t busy_ns = 0;  // sum of client virtual clocks
  // core (DittoStats, controller)
  uint64_t gets = 0, sets = 0, hits = 0, misses = 0, evictions = 0, regrets = 0;
  uint64_t cas_failures = 0, insert_retries = 0, dup_resolved = 0, set_retries = 0;
  uint64_t weight_updates = 0, expert_switches = 0;
  // dm
  uint64_t segments = 0, cached_objects = 0;

  LayerCounters operator-(const LayerCounters& before) const;
  bool operator==(const LayerCounters& other) const = default;
};

// Reads the counters. The deployment's clients must be idle.
LayerCounters Snapshot(Deployment& d);

// Memory the cache occupies on its memory node, in MiB: the superblock and
// hash table plus every heap segment the controller has handed out (the
// heap's high-water mark; freed blocks are recycled inside segments).
double NodeMemMb(Deployment& d);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENTS_H_
