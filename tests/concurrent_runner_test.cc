// Tests of the replay engine on real host threads: thread-count-independent
// determinism of kPartitioned replay with pinned counters, exact per-client
// accounting under both placements, and a ThreadSanitizer-friendly stress of
// ClusterClient on shared memory nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "core/cluster.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

// A sharded Ditto deployment: one memory node, server, context, and client
// per shard, so every shard's cache state is thread-private.
struct ShardedDeployment {
  std::vector<std::unique_ptr<dm::MemoryPool>> pools;
  std::vector<std::unique_ptr<core::DittoServer>> servers;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> shards;
  std::vector<sim::CacheClient*> raw;
  std::vector<rdma::RemoteNode*> nodes;
};

ShardedDeployment MakeDeployment(int num_shards) {
  dm::PoolConfig pool_config;
  pool_config.memory_bytes = 16 << 20;
  pool_config.num_buckets = 1024;
  pool_config.capacity_objects = 300;  // small: evictions exercise the policies
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};

  ShardedDeployment d;
  // Shards are driven directly: the engine partitions keys with
  // sim::ShardForKey.
  for (int i = 0; i < num_shards; ++i) {
    dm::MemoryPool* pool =
        d.pools.emplace_back(std::make_unique<dm::MemoryPool>(pool_config)).get();
    d.servers.push_back(std::make_unique<core::DittoServer>(pool, config));
    d.ctxs.push_back(std::make_unique<rdma::ClientContext>(i, /*seed=*/17));
    d.shards.push_back(std::make_unique<sim::DittoCacheClient>(pool, d.ctxs.back().get(), config));
    d.raw.push_back(d.shards.back().get());
    d.nodes.push_back(&pool->node());
  }
  return d;
}

sim::RunOptions ShardedOptions(int threads, size_t batch_ops) {
  sim::RunOptions options;
  options.placement = sim::Placement::kPartitioned;
  options.threads = threads;
  options.batch_ops = batch_ops;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 50.0;
  return options;
}

sim::RunResult RunSharded(const workload::Trace& trace, int threads, size_t batch_ops,
                          std::vector<sim::RunResult>* per_client = nullptr) {
  ShardedDeployment d = MakeDeployment(/*num_shards=*/8);
  return sim::RunTrace(d.raw, trace, d.nodes, ShardedOptions(threads, batch_ops), per_client);
}

workload::Trace MakeTrace() {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 2000;
  return workload::MakeYcsbTrace(ycsb, /*count=*/30000, /*seed=*/7);
}

TEST(ConcurrentRunnerTest, IdenticalResultsAcrossThreadCounts) {
  const workload::Trace trace = MakeTrace();
  const sim::RunResult r1 = RunSharded(trace, /*threads=*/1, /*batch_ops=*/0);
  EXPECT_GT(r1.gets, 0u);
  EXPECT_GT(r1.hits, 0u);
  EXPECT_GT(r1.misses, 0u);
  for (const int threads : {2, 8}) {
    const sim::RunResult r = RunSharded(trace, threads, /*batch_ops=*/0);
    EXPECT_EQ(r.hits, r1.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, r1.misses) << "threads=" << threads;
    EXPECT_EQ(r.gets, r1.gets) << "threads=" << threads;
    EXPECT_EQ(r.sets, r1.sets) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.hit_rate, r1.hit_rate) << "threads=" << threads;
    // Shards own their memory nodes, so even the virtual-time accounting is
    // thread-private and the full result reproduces bit-for-bit.
    EXPECT_EQ(r.nic_messages, r1.nic_messages) << "threads=" << threads;
    EXPECT_EQ(r.nic_doorbells, r1.nic_doorbells) << "threads=" << threads;
    EXPECT_EQ(r.rpc_ops, r1.rpc_ops) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.throughput_mops, r1.throughput_mops) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.p99_us, r1.p99_us) << "threads=" << threads;
  }
}

TEST(ConcurrentRunnerTest, BatchedModeIsAlsoDeterministicAcrossThreadCounts) {
  const workload::Trace trace = MakeTrace();
  const sim::RunResult r1 = RunSharded(trace, /*threads=*/1, /*batch_ops=*/32);
  for (const int threads : {2, 8}) {
    const sim::RunResult r = RunSharded(trace, threads, /*batch_ops=*/32);
    EXPECT_EQ(r.hits, r1.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, r1.misses) << "threads=" << threads;
    EXPECT_EQ(r.nic_messages, r1.nic_messages) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.hit_rate, r1.hit_rate) << "threads=" << threads;
  }
}

TEST(ConcurrentRunnerTest, BatchingDoesNotChangeCacheBehaviour) {
  // Doorbell batching only coalesces cost accounting; hits/misses and the
  // number of posted WQEs are identical with and without it.
  const workload::Trace trace = MakeTrace();
  const sim::RunResult plain = RunSharded(trace, /*threads=*/2, /*batch_ops=*/0);
  const sim::RunResult batched = RunSharded(trace, /*threads=*/2, /*batch_ops=*/32);
  EXPECT_EQ(batched.hits, plain.hits);
  EXPECT_EQ(batched.misses, plain.misses);
  EXPECT_EQ(batched.sets, plain.sets);
  EXPECT_LE(batched.nic_messages, plain.nic_messages);
  EXPECT_LT(batched.nic_doorbells, plain.nic_doorbells);
}

// Counters of an 8-shard kPartitioned run, pinned to the values the engine
// printed before kPartitioned and kShared replay shared one loop. Shards own
// their memory nodes, so they hold for every thread count.
TEST(ConcurrentRunnerTest, PartitionedCountersArePinnedForEveryThreadCount) {
  const workload::Trace trace = MakeTrace();
  for (const int threads : {1, 4}) {
    const sim::RunResult r = RunSharded(trace, threads, /*batch_ops=*/0);
    EXPECT_EQ(r.ops, 24000u) << "threads=" << threads;
    EXPECT_EQ(r.hits, 11850u) << "threads=" << threads;
    EXPECT_EQ(r.misses, 167u) << "threads=" << threads;
    EXPECT_EQ(r.nic_messages, 88615u) << "threads=" << threads;
    EXPECT_EQ(r.nic_doorbells, 88615u) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.elapsed_s, 0.018063998) << "threads=" << threads;
    EXPECT_EQ(r.threads, threads);
  }
}

// Sums per-client rows and checks them against the aggregate: ops, gets and
// hits all add up, and every row's ops is the length of its measured stream.
void ExpectPerClientRowsSumToAggregate(const sim::RunResult& r,
                                       const std::vector<sim::RunResult>& per_client,
                                       const std::vector<uint64_t>& expected_ops) {
  ASSERT_EQ(per_client.size(), expected_ops.size());
  uint64_t ops = 0, gets = 0, hits = 0;
  for (size_t c = 0; c < per_client.size(); ++c) {
    EXPECT_EQ(per_client[c].ops, expected_ops[c]) << "client " << c;
    ops += per_client[c].ops;
    gets += per_client[c].gets;
    hits += per_client[c].hits;
  }
  EXPECT_EQ(ops, r.ops);
  EXPECT_EQ(gets, r.gets);
  EXPECT_EQ(hits, r.hits);
}

TEST(ConcurrentRunnerTest, PerClientRowsAreExactUnderBothPlacements) {
  const workload::Trace trace = MakeTrace();
  const size_t begin = static_cast<size_t>(0.2 * static_cast<double>(trace.size()));

  // kPartitioned: shard s replays exactly the measured keys routed to it.
  std::vector<sim::RunResult> per_shard;
  const sim::RunResult sharded = RunSharded(trace, /*threads=*/2, /*batch_ops=*/0, &per_shard);
  std::vector<uint64_t> shard_ops(8, 0);
  for (size_t i = begin; i < trace.size(); ++i) {
    shard_ops[sim::ShardForKey(trace[i].key, 8)]++;
  }
  ExpectPerClientRowsSumToAggregate(sharded, per_shard, shard_ops);
  EXPECT_NE(*std::min_element(shard_ops.begin(), shard_ops.end()),
            *std::max_element(shard_ops.begin(), shard_ops.end()))
      << "key partitioning is uneven, so a strided op count would be wrong";

  // kShared (one worker, so deterministic): client c replays the strided
  // stream begin+c, begin+c+8, ...
  ShardedDeployment d = MakeDeployment(/*num_shards=*/8);
  sim::RunOptions options = ShardedOptions(/*threads=*/1, /*batch_ops=*/0);
  options.placement = sim::Placement::kShared;
  std::vector<sim::RunResult> per_client;
  const sim::RunResult shared = sim::RunTrace(d.raw, trace, d.nodes, options, &per_client);
  const uint64_t measured = trace.size() - begin;
  ASSERT_EQ(measured % 8, 0u);
  ExpectPerClientRowsSumToAggregate(shared, per_client, std::vector<uint64_t>(8, measured / 8));
}

TEST(ConcurrentRunnerTest, SeededPartitionIsSeededAndBalanced) {
  std::vector<int> counts(8, 0);
  bool seed_changes_route = false;
  for (uint64_t key = 0; key < 8000; ++key) {
    const uint32_t s = SeededPartition(key, 8, 42);
    ASSERT_LT(s, 8u);
    counts[s]++;
    seed_changes_route = seed_changes_route || s != SeededPartition(key, 8, 43);
  }
  EXPECT_TRUE(seed_changes_route);
  for (const int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// Stress ClusterClient from real threads against one shared cluster: each
// thread has its own client + context (the supported concurrency model) but
// all route into the same four memory nodes, hammering the CAS/atomic paths
// with Gets, Sets and Deletes. Run under -fsanitize=thread this is the
// data-race canary for the dm/rdma layers.
TEST(ClusterClientStressTest, ConcurrentClientsOnSharedPool) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 512;

  core::ClusterConfig config;
  config.nodes = 4;
  config.pool.memory_bytes = 16 << 20;
  config.pool.num_buckets = 1024;
  config.pool.capacity_objects = 200;
  config.pool.cost = rdma::CostModel::Disabled();
  config.ditto.experts = {"lru", "lfu"};
  core::ClusterPool pool(config);

  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<core::ClusterClient>> clients;
  for (int t = 0; t < kThreads; ++t) {
    ctxs.push_back(std::make_unique<rdma::ClientContext>(t, /*seed=*/t + 1));
    clients.push_back(
        std::make_unique<core::ClusterClient>(&pool, ctxs.back().get(), config.ditto));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &clients] {
      core::ClusterClient& client = *clients[t];
      Rng rng(1000 + t);
      std::string value(64, 'v');
      std::string got;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "stress-" + std::to_string(rng.NextBelow(kKeySpace));
        const uint64_t dice = rng.NextBelow(10);
        if (dice < 6) {
          client.Get(key, &got);
        } else if (dice < 9) {
          client.Set(key, value);
        } else {
          client.Delete(key);
        }
      }
      client.FlushBuffers();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  uint64_t total_ops = 0;
  for (const auto& client : clients) {
    const core::DittoStats s = client->stats();
    EXPECT_EQ(s.gets, s.hits + s.misses);
    total_ops += s.gets + s.sets;
  }
  EXPECT_GT(total_ops, static_cast<uint64_t>(kThreads) * kOpsPerThread * 8 / 10);
  // Eviction must keep every node at or near its capacity bound.
  EXPECT_LE(pool.cached_objects(), 4u * config.pool.capacity_objects + kThreads);
}

}  // namespace
}  // namespace ditto
