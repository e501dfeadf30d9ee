// Wall-clock measurement smoke tests: every replay engine (interleaved,
// pipelined, concurrent sharded, contended) must fill the host wall-clock
// fields of RunResult — wall_s, wall_mops, threads, ops_per_core_mops — with
// positive, mutually consistent values. These fields are what the bench
// harness reports as "real" throughput alongside the modelled virtual-time
// numbers, so an engine that forgets to stamp them silently reports 0 Mops.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/ditto_client.h"
#include "dm/pool.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

workload::Trace SmallTrace() {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 500;
  return workload::MakeYcsbTrace(ycsb, /*count=*/20000, /*seed=*/11);
}

dm::PoolConfig SmallPool() {
  dm::PoolConfig config;
  config.memory_bytes = 16 << 20;
  config.num_buckets = 1024;
  config.capacity_objects = 1000;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

core::DittoConfig LruLfu() {
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  return config;
}

// The invariants every engine must satisfy, given the host thread count it
// is expected to report.
void ExpectWallFilled(const sim::RunResult& r, int expected_threads) {
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.wall_s, 0.0);
  EXPECT_GT(r.wall_mops, 0.0);
  EXPECT_EQ(r.threads, expected_threads);
  EXPECT_NEAR(r.ops_per_core_mops, r.wall_mops / static_cast<double>(r.threads),
              1e-12);
  // wall_mops is derived from the same ops counter the result reports.
  EXPECT_NEAR(r.wall_mops, static_cast<double>(r.ops) / (r.wall_s * 1e6),
              r.wall_mops * 1e-9 + 1e-12);
}

TEST(WallClockTest, RunTraceFillsWallFields) {
  dm::MemoryPool pool(SmallPool());
  const core::DittoConfig config = LruLfu();
  core::DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  sim::DittoCacheClient client(&pool, &ctx, config);
  std::vector<sim::CacheClient*> raw = {&client};

  sim::RunOptions options;
  options.warmup_fraction = 0.1;
  const sim::RunResult r = sim::RunTrace(raw, SmallTrace(), &pool.node(), options);
  ExpectWallFilled(r, /*expected_threads=*/1);
}

TEST(WallClockTest, PipelinedRunTraceFillsWallFields) {
  dm::MemoryPool pool(SmallPool());
  const core::DittoConfig config = LruLfu();
  core::DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  sim::DittoCacheClient client(&pool, &ctx, config);
  std::vector<sim::CacheClient*> raw = {&client};

  sim::RunOptions options;
  options.pipeline_depth = 4;
  const sim::RunResult r = sim::RunTrace(raw, SmallTrace(), &pool.node(), options);
  ExpectWallFilled(r, /*expected_threads=*/1);
}

// kPartitioned replay over `num_shards` private memory nodes, one Ditto
// client each, with `threads` requested workers.
sim::RunResult RunSharded(int num_shards, int threads) {
  const core::DittoConfig config = LruLfu();
  std::vector<std::unique_ptr<dm::MemoryPool>> pools;
  std::vector<std::unique_ptr<core::DittoServer>> servers;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> shards;
  std::vector<sim::CacheClient*> raw;
  std::vector<rdma::RemoteNode*> nodes;
  for (int i = 0; i < num_shards; ++i) {
    dm::MemoryPool* pool = pools.emplace_back(std::make_unique<dm::MemoryPool>(SmallPool())).get();
    servers.push_back(std::make_unique<core::DittoServer>(pool, config));
    ctxs.push_back(std::make_unique<rdma::ClientContext>(static_cast<uint32_t>(i)));
    shards.push_back(std::make_unique<sim::DittoCacheClient>(pool, ctxs.back().get(), config));
    raw.push_back(shards.back().get());
    nodes.push_back(&pool->node());
  }
  sim::RunOptions options;
  options.placement = sim::Placement::kPartitioned;
  options.threads = threads;
  return sim::RunTrace(raw, SmallTrace(), nodes, options);
}

TEST(WallClockTest, PartitionedReplayReportsWorkerThreadCount) {
  // Workers driving the shards: min(options.threads, num_shards).
  ExpectWallFilled(RunSharded(/*num_shards=*/4, /*threads=*/2), /*expected_threads=*/2);
}

TEST(WallClockTest, PartitionedReplayClampsThreadsToShardCount) {
  // More workers than shards: only the 2 shards can run.
  ExpectWallFilled(RunSharded(/*num_shards=*/2, /*threads=*/8), /*expected_threads=*/2);
}

TEST(WallClockTest, SharedReplayReportsOneThreadPerClient) {
  constexpr int kClients = 2;
  core::DittoConfig config = LruLfu();
  config.validate_inserts = true;
  dm::MemoryPool pool(SmallPool());
  core::DittoServer server(&pool, config);
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> clients;
  std::vector<sim::CacheClient*> raw;
  for (int i = 0; i < kClients; ++i) {
    ctxs.push_back(std::make_unique<rdma::ClientContext>(static_cast<uint32_t>(i)));
    clients.push_back(
        std::make_unique<sim::DittoCacheClient>(&pool, ctxs.back().get(), config));
    raw.push_back(clients.back().get());
  }

  sim::RunOptions options;
  options.threads = kClients;
  std::vector<rdma::RemoteNode*> nodes = {&pool.node()};
  std::vector<sim::RunResult> per_client;
  const sim::RunResult r = sim::RunTrace(raw, SmallTrace(), nodes, options, &per_client);
  ExpectWallFilled(r, /*expected_threads=*/kClients);
  // Per-client results share the run's wall window and thread count.
  ASSERT_EQ(per_client.size(), static_cast<size_t>(kClients));
}

}  // namespace
}  // namespace ditto
