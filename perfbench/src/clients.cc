#include "clients.h"

#include <algorithm>

namespace perfbench {

const char* SpanNameString(uint32_t name) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "net.conn",           "sim.exec",          "core.get",
      "core.set",           "core.get.start",    "core.get.match",
      "core.get.verify",    "core.get.miss",     "core.set.start",
      "core.set.match",     "core.set.update_alloc", "core.set.update_publish",
      "core.set.reserve",   "core.set.evict",    "core.set.alloc",
      "core.set.publish",
  };
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

void SpanRecorder::Flush() {
  AccumulateSpans(spans_, &totals_);
  if (retained_.empty()) {
    retained_ = spans_;
  }
  spans_.clear();
}

void ObservedClient::Observe(std::span<const sim::CacheOp> ops,
                             const sim::CacheResult* results) {
  if (tid_.load(std::memory_order_relaxed) == 0) {
    thread_.store(::pthread_self(), std::memory_order_release);
    tid_.store(CurrentTid(), std::memory_order_release);
  }
  const bool record_virt = record_virt_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < ops.size(); ++i) {
    const sim::CacheResult& r = results[i];
    observed_.ops++;
    if (r.status != sim::OpStatus::kHit && r.status != sim::OpStatus::kMiss &&
        r.status != sim::OpStatus::kStored) {
      observed_.failed++;
    }
    if (record_virt) {
      virt_.Record(static_cast<uint64_t>(r.latency_us * 1000.0 + 0.5));
    }
    if (controller_ != nullptr && observed_.ops % kExpertSampleOps == 0) {
      const std::vector<double> weights = controller_->weights();
      const int leader = static_cast<int>(std::max_element(weights.begin(), weights.end()) -
                                          weights.begin());
      if (leader_ >= 0 && leader != leader_) {
        observed_.expert_switches++;
      }
      leader_ = leader;
    }
  }
  // Single writer (the executing thread). The release publishes everything
  // this batch wrote, in the cache and here, to a thread that reads calls().
  calls_.store(calls_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

void TimedClient::ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) {
  if (untimed_ + 1 < kEvery) {
    untimed_++;
    inner_->ExecuteBatch(ops, results);
    Observe(ops, results);
    return;
  }
  untimed_ = 0;
  const int64_t begin = NowNs();
  inner_->ExecuteBatch(ops, results);
  const auto ns = static_cast<uint64_t>(NowNs() - begin);
  (ops[0].kind == sim::OpKind::kSet ? set_ns_ : get_ns_).push_back(ns);
  Observe(ops, results);
}

void TracedClient::ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) {
  const uint64_t id = recorder_.NextOp();
  const uint32_t exec = recorder_.Begin(kSpanSimExec, id);
  for (size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case sim::OpKind::kGet:
        TracedGet(ops[i], id, &results[i]);
        break;
      case sim::OpKind::kSet:
        TracedSet(ops[i], id, &results[i]);
        break;
      default:
        // Delete/Expire/MultiGet: not part of any workload; run untraced.
        inner_->ExecuteBatch(ops.subspan(i, 1), &results[i]);
        break;
    }
  }
  recorder_.End(exec);
  Observe(ops, results);
}

namespace {

uint32_t GetStageSpan(core::GetOp::Stage stage) {
  switch (stage) {
    case core::GetOp::Stage::kMatchSlot:
      return kSpanGetMatch;
    case core::GetOp::Stage::kVerifyObject:
      return kSpanGetVerify;
    default:
      return kSpanGetMiss;
  }
}

uint32_t SetStageSpan(core::SetOp::Stage stage) {
  switch (stage) {
    case core::SetOp::Stage::kMatchForUpdate:
      return kSpanSetMatch;
    case core::SetOp::Stage::kUpdateAlloc:
      return kSpanSetUpdateAlloc;
    case core::SetOp::Stage::kUpdatePublish:
      return kSpanSetUpdatePublish;
    case core::SetOp::Stage::kInsertReserve:
      return kSpanSetReserve;
    case core::SetOp::Stage::kInsertEvict:
      return kSpanSetEvict;
    case core::SetOp::Stage::kInsertAlloc:
      return kSpanSetAlloc;
    default:
      return kSpanSetPublish;
  }
}

}  // namespace

// Mirrors sim::DispatchSingleOp + DittoClient::Get: same calls, same status
// and virtual-latency bookkeeping, with a span around each call.
void TracedClient::TracedGet(const sim::CacheOp& op, uint64_t id, sim::CacheResult* result) {
  core::DittoClient& client = inner_->ditto();
  const uint64_t begin_ns = ctx().clock().busy_ns();
  const uint32_t whole = recorder_.Begin(kSpanCoreGet, id);
  core::GetOp get;
  uint32_t step = recorder_.Begin(kSpanGetStart, id);
  client.StartGet(&get, op.key, op.want_value ? &result->value : nullptr);
  recorder_.End(step);
  bool done = false;
  while (!done) {
    step = recorder_.Begin(GetStageSpan(get.stage), id);
    done = client.StepGet(&get);
    recorder_.End(step);
    get_steps_++;
  }
  recorder_.End(whole);
  result->status = get.hit ? sim::OpStatus::kHit : sim::OpStatus::kMiss;
  result->latency_us = static_cast<double>(ctx().clock().busy_ns() - begin_ns) / 1000.0;
}

void TracedClient::TracedSet(const sim::CacheOp& op, uint64_t id, sim::CacheResult* result) {
  core::DittoClient& client = inner_->ditto();
  const uint64_t begin_ns = ctx().clock().busy_ns();
  const uint32_t whole = recorder_.Begin(kSpanCoreSet, id);
  core::SetOp set;
  uint32_t step = recorder_.Begin(kSpanSetStart, id);
  client.StartSet(&set, op.key, op.value, op.ttl_ticks);
  recorder_.End(step);
  bool done = false;
  while (!done) {
    step = recorder_.Begin(SetStageSpan(set.stage), id);
    done = client.StepSet(&set);
    recorder_.End(step);
    set_steps_++;
  }
  recorder_.End(whole);
  result->status = set.stored ? sim::OpStatus::kStored : sim::OpStatus::kDropped;
  result->latency_us = static_cast<double>(ctx().clock().busy_ns() - begin_ns) / 1000.0;
}

std::unique_ptr<Deployment> Deploy(const DeployOptions& options) {
  // Table at ~4 slots per cached object, heap sized generously; capacity is
  // enforced in objects.
  dm::PoolConfig pool_config;
  pool_config.num_buckets = 1;
  while (pool_config.num_buckets * 8 < options.capacity * 4) {
    pool_config.num_buckets *= 2;
  }
  pool_config.memory_bytes =
      std::max<size_t>(size_t{32} << 20, options.capacity * 1024 + (size_t{8} << 20));
  pool_config.capacity_objects = options.capacity;

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  config.validate_inserts = options.validate_inserts;

  auto d = std::make_unique<Deployment>();
  d->pool = std::make_unique<dm::MemoryPool>(pool_config);
  d->server = std::make_unique<core::DittoServer>(d->pool.get(), config);
  for (int i = 0; i < options.clients; ++i) {
    d->ctxs.push_back(std::make_unique<rdma::ClientContext>(static_cast<uint32_t>(i)));
    d->inner.push_back(
        std::make_unique<sim::DittoCacheClient>(d->pool.get(), d->ctxs.back().get(), config));
    sim::DittoCacheClient* inner = d->inner.back().get();
    switch (options.wrap) {
      case Wrap::kCount:
        d->clients.push_back(std::make_unique<CountingClient>(inner));
        break;
      case Wrap::kTime:
        d->clients.push_back(std::make_unique<TimedClient>(inner));
        break;
      case Wrap::kTrace:
        d->clients.push_back(std::make_unique<TracedClient>(inner));
        break;
    }
    d->raw.push_back(d->clients.back().get());
  }
  if (!d->clients.empty()) {
    d->clients[0]->SampleExperts(&d->server->controller());
  }
  return d;
}

LayerCounters LayerCounters::operator-(const LayerCounters& b) const {
  LayerCounters d = *this;
  d.reads -= b.reads;
  d.writes -= b.writes;
  d.atomics -= b.atomics;
  d.rpcs -= b.rpcs;
  d.nic_msgs -= b.nic_msgs;
  d.nic_bytes -= b.nic_bytes;
  d.doorbells -= b.doorbells;
  d.nic_horizon_ns -= b.nic_horizon_ns;
  d.cpu_horizon_ns -= b.cpu_horizon_ns;
  d.busy_ns -= b.busy_ns;
  d.gets -= b.gets;
  d.sets -= b.sets;
  d.hits -= b.hits;
  d.misses -= b.misses;
  d.evictions -= b.evictions;
  d.regrets -= b.regrets;
  d.cas_failures -= b.cas_failures;
  d.insert_retries -= b.insert_retries;
  d.dup_resolved -= b.dup_resolved;
  d.set_retries -= b.set_retries;
  d.weight_updates -= b.weight_updates;
  d.expert_switches -= b.expert_switches;
  d.segments -= b.segments;
  // cached_objects is a level, not a count: the delta keeps the later value.
  return d;
}

LayerCounters Snapshot(Deployment& d) {
  LayerCounters c;
  for (size_t i = 0; i < d.clients.size(); ++i) {
    const rdma::ClientContext& ctx = *d.ctxs[i];
    c.reads += ctx.reads;
    c.writes += ctx.writes;
    c.atomics += ctx.atomics;
    c.rpcs += ctx.rpcs;
    c.busy_ns += d.ctxs[i]->clock().busy_ns();
    const core::DittoStats& s = d.clients[i]->ditto().stats();
    c.gets += s.gets;
    c.sets += s.sets;
    c.hits += s.hits;
    c.misses += s.misses;
    c.evictions += s.evictions;
    c.regrets += s.regrets;
    c.cas_failures += s.cas_failures;
    c.insert_retries += s.insert_retries;
    c.dup_resolved += s.dup_resolved;
    c.set_retries += s.set_retries;
    c.expert_switches += d.clients[i]->observed().expert_switches;
  }
  rdma::RemoteNode& node = *d.node();
  c.nic_msgs = node.nic().messages();
  c.nic_bytes = node.nic().bytes();
  c.doorbells = node.nic().doorbells();
  c.nic_horizon_ns = node.nic().busy_horizon_ns();
  c.cpu_horizon_ns = node.cpu().busy_horizon_ns();
  c.weight_updates = d.server->controller().updates_received();
  c.segments = d.pool->segments_allocated();
  c.cached_objects = d.pool->cached_objects();
  return c;
}

double NodeMemMb(Deployment& d) {
  const dm::MemoryPool& pool = *d.pool;
  const double bytes = static_cast<double>(pool.heap_addr()) +
                       static_cast<double>(pool.segments_allocated()) *
                           static_cast<double>(pool.config().segment_bytes);
  return bytes / (1 << 20);
}

}  // namespace perfbench
