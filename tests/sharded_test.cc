// Tests of multi-memory-node deployments: keys routed over several memory
// nodes by the HashRing, served through ClusterPool / ClusterClient.
//
// The load-bearing guarantees: keys spread evenly over the nodes, every op
// routes to its owner, capacity and statistics are per node and aggregate
// correctly, and more memory nodes relieve the single-NIC throughput bound.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/cluster.h"
#include "core/ring.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/ycsb.h"

namespace ditto::core {
namespace {

// Cost model off: these cases pin behaviour only.
ClusterConfig SmallCluster(int nodes, uint64_t per_node_capacity) {
  ClusterConfig config;
  config.nodes = nodes;
  config.pool.memory_bytes = 16 << 20;
  config.pool.num_buckets = 1024;
  config.pool.capacity_objects = per_node_capacity;
  config.pool.cost = rdma::CostModel::Disabled();
  config.ditto.experts = {"lru", "lfu"};
  return config;
}

TEST(ShardedTest, RoutingIsDeterministicAndCovered) {
  const HashRing ring(4);
  int seen[4] = {0, 0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    const uint64_t hash = HashKey("key-" + std::to_string(i));
    const int node = ring.NodeFor(hash);
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 4);
    ASSERT_EQ(node, ring.NodeFor(hash));
    seen[node]++;
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(seen[n], 1800) << "hash routing must spread keys roughly evenly";
  }
}

TEST(ShardedTest, SetGetAcrossNodes) {
  const ClusterConfig config = SmallCluster(3, 1000);
  ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 500; ++i) {
    client.Set("key-" + std::to_string(i), "value-" + std::to_string(i));
  }
  std::string value;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client.Get("key-" + std::to_string(i), &value)) << i;
    EXPECT_EQ(value, "value-" + std::to_string(i));
  }
  // Objects actually landed on multiple nodes.
  int populated = 0;
  for (int n = 0; n < 3; ++n) {
    if (pool.node(n).cached_objects() > 50) {
      populated++;
    }
  }
  EXPECT_EQ(populated, 3);
  EXPECT_EQ(pool.cached_objects(), 500u);
}

TEST(ShardedTest, DeleteRoutesToOwningNode) {
  const ClusterConfig config = SmallCluster(2, 1000);
  ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  ClusterClient client(&pool, &ctx, config.ditto);

  client.Set("a", "1");
  client.Set("b", "2");
  EXPECT_TRUE(client.Delete("a"));
  EXPECT_FALSE(client.Get("a", nullptr));
  EXPECT_TRUE(client.Get("b", nullptr));
}

TEST(ShardedTest, PerNodeCapacityEnforced) {
  const ClusterConfig config = SmallCluster(4, 100);  // 400 objects aggregate
  ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 2000; ++i) {
    client.Set("key-" + std::to_string(i), "v");
  }
  EXPECT_LE(pool.cached_objects(), 440u);
  EXPECT_GT(client.stats().evictions, 1000u);
}

TEST(ShardedTest, StatsAggregateAcrossNodes) {
  const ClusterConfig config = SmallCluster(2, 1000);
  ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 100; ++i) {
    client.Set("k" + std::to_string(i), "v");
  }
  for (int i = 0; i < 200; ++i) {
    client.Get("k" + std::to_string(i), nullptr);  // half hit, half miss
  }
  const DittoStats stats = client.stats();
  EXPECT_EQ(stats.sets, 100u);
  EXPECT_EQ(stats.gets, 200u);
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.misses, 100u);
}

TEST(ShardedTest, AggregateNicScalesThroughput) {
  // The paper's single-MN Ditto is bounded by one RNIC's message rate;
  // spreading the pool over more memory nodes must scale throughput.
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 10000;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, 60000, 1);

  const auto run_with_nodes = [&](int nodes) {
    ClusterConfig config;
    config.nodes = nodes;
    config.pool.memory_bytes = 32 << 20;
    config.pool.num_buckets = 8192;
    config.pool.capacity_objects = 40000;
    config.ditto.experts = {"lru", "lfu"};
    ClusterPool pool(config);

    // Enough clients that aggregate demand (~ clients / 4.3us per Get)
    // clearly exceeds one NIC's ~13 Mops ceiling.
    constexpr int kClients = 128;
    std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
    std::vector<std::unique_ptr<sim::ClusterCacheClient>> clients;
    std::vector<sim::CacheClient*> raw;
    std::vector<rdma::RemoteNode*> remote_nodes;
    for (int n = 0; n < nodes; ++n) {
      remote_nodes.push_back(&pool.node(n).node());
    }
    for (int i = 0; i < kClients; ++i) {
      ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
      clients.push_back(
          std::make_unique<sim::ClusterCacheClient>(&pool, ctxs.back().get(), config.ditto));
      raw.push_back(clients.back().get());
    }
    // Preload so the measured phase has no misses.
    const std::string value(232, 'v');
    for (uint64_t k = 0; k < ycsb.num_keys; ++k) {
      clients[k % kClients]->Set(workload::KeyString(k), value);
    }
    sim::RunOptions options;
    options.set_on_miss = false;
    return sim::RunTrace(raw, trace, remote_nodes, options).throughput_mops;
  };

  const double one = run_with_nodes(1);
  const double four = run_with_nodes(4);
  EXPECT_GT(four, one * 1.5) << "adding memory nodes must relieve the NIC bottleneck";
}

}  // namespace
}  // namespace ditto::core
