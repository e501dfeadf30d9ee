#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "rdma/arena.h"
#include "rdma/nic_model.h"
#include "rdma/node.h"
#include "rdma/verbs.h"

namespace ditto::rdma {
namespace {

TEST(ArenaTest, ReadWriteRoundTrip) {
  MemoryArena arena(4096);
  const std::string data = "hello disaggregated world";
  arena.Write(128, data.data(), data.size());
  std::string out(data.size(), '\0');
  arena.Read(128, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(ArenaTest, UnalignedEdgesPreserveNeighbors) {
  MemoryArena arena(64);
  uint8_t full[16];
  std::memset(full, 0xAA, sizeof(full));
  arena.Write(0, full, sizeof(full));
  // Write 3 bytes at offset 5 (inside the first word, crossing into none).
  const uint8_t patch[3] = {1, 2, 3};
  arena.Write(5, patch, 3);
  uint8_t out[16];
  arena.Read(0, out, sizeof(out));
  EXPECT_EQ(out[4], 0xAA);
  EXPECT_EQ(out[5], 1);
  EXPECT_EQ(out[6], 2);
  EXPECT_EQ(out[7], 3);
  EXPECT_EQ(out[8], 0xAA);
}

// Arenas at and above 2 MiB take the huge-page-aligned allocation; 1 MiB
// keeps a plain one. Every size starts zeroed end to end and round-trips at
// its last word. Whether the host backs the memory with huge pages depends
// on its THP mode, so residency is not asserted.
TEST(ArenaTest, SizesAroundTheHugePageThreshold) {
  constexpr size_t kMiB = size_t{1} << 20;
  for (const size_t size : {kMiB, 2 * kMiB, 136 * kMiB + 8}) {
    SCOPED_TRACE(size);
    MemoryArena arena(size);
    ASSERT_EQ(arena.size(), size);
    const uint64_t last = size - 8;
    EXPECT_EQ(arena.ReadU64(0), 0u);
    EXPECT_EQ(arena.ReadU64(last), 0u);
    const uint64_t word = 0x0123456789abcdefULL;
    arena.Write(last, &word, 8);
    uint64_t out = 0;
    arena.Read(last, &out, 8);
    EXPECT_EQ(out, word);
    if (size >= MemoryArena::kHugePageBytes) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.base()) % MemoryArena::kHugePageBytes, 0u);
    }
  }
}

TEST(ArenaTest, CompareSwapSemantics) {
  MemoryArena arena(64);
  arena.WriteU64(8, 100);
  EXPECT_EQ(arena.CompareSwap(8, 100, 200), 100u);  // success returns expected
  EXPECT_EQ(arena.ReadU64(8), 200u);
  EXPECT_EQ(arena.CompareSwap(8, 100, 300), 200u);  // failure returns observed
  EXPECT_EQ(arena.ReadU64(8), 200u);
}

TEST(ArenaTest, FetchAddReturnsPrior) {
  MemoryArena arena(64);
  arena.WriteU64(0, 41);
  EXPECT_EQ(arena.FetchAdd(0, 1), 41u);
  EXPECT_EQ(arena.ReadU64(0), 42u);
}

TEST(ArenaTest, FetchAddNegativeDeltaWraps) {
  MemoryArena arena(64);
  arena.WriteU64(0, 10);
  arena.FetchAdd(0, ~uint64_t{0});  // -1 in two's complement
  EXPECT_EQ(arena.ReadU64(0), 9u);
}

TEST(ArenaTest, ConcurrentFetchAddIsExact) {
  MemoryArena arena(64);
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena] {
      for (int i = 0; i < kIters; ++i) {
        arena.FetchAdd(16, 1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(arena.ReadU64(16), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ArenaTest, ConcurrentCasExactlyOneWinnerPerRound) {
  MemoryArena arena(64);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, &winners, t] {
      if (arena.CompareSwap(0, 0, static_cast<uint64_t>(t) + 1) == 0) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(winners.load(), 1);
}

TEST(QueueingServerTest, UnloadedServerHasNoDelay) {
  QueueingServer server;
  EXPECT_EQ(server.Charge(1000, 100), 0u);
  EXPECT_EQ(server.next_free_ns(), 100u) << "work-sum advances by the service time";
}

TEST(QueueingServerTest, BacklogDelaysRequestsBehindIt) {
  QueueingServer server;
  server.Charge(0, 100);                         // W = 100
  const uint64_t delay = server.Charge(0, 100);  // arrives at t=0 behind 100ns of work
  EXPECT_EQ(delay, 100u);
  EXPECT_EQ(server.next_free_ns(), 200u);
}

TEST(QueueingServerTest, DrainedBacklogCausesNoDelay) {
  QueueingServer server;
  server.Charge(0, 100);
  EXPECT_EQ(server.Charge(5000, 100), 0u) << "by t=5000 the 100ns of work has drained";
  EXPECT_EQ(server.next_free_ns(), 200u) << "work-sum is load, not wall time";
}

TEST(NicModelTest, ThroughputCapsAtMessageRate) {
  CostModel cost;
  cost.nic_mops = 10.0;  // 100ns per message
  NicModel nic(cost);
  for (int i = 0; i < 1000; ++i) {
    nic.ChargeMessage(0, 1.0);
  }
  EXPECT_EQ(nic.messages(), 1000u);
  EXPECT_EQ(nic.busy_horizon_ns(), 100000u);  // 1000 msgs x 100ns
}

TEST(NicModelTest, AtomicsCostMoreSlots) {
  CostModel cost;
  cost.nic_mops = 10.0;
  cost.atomic_msg_cost = 3.0;
  NicModel nic(cost);
  nic.ChargeMessage(0, cost.atomic_msg_cost);
  EXPECT_EQ(nic.busy_horizon_ns(), 300u);
}

TEST(NicModelTest, DisabledCostSkipsTimeAccounting) {
  NicModel nic(CostModel::Disabled());
  EXPECT_EQ(nic.ChargeMessage(0, 1.0), 0u);
  EXPECT_EQ(nic.busy_horizon_ns(), 0u);
  EXPECT_EQ(nic.messages(), 1u);  // counters still work
}

TEST(CpuModelTest, MoreCoresServeFaster) {
  CostModel cost;
  CpuModel one(cost, 1);
  CpuModel four(cost, 4);
  for (int i = 0; i < 100; ++i) {
    one.ChargeRpc(0, 1.0);
    four.ChargeRpc(0, 1.0);
  }
  EXPECT_EQ(one.busy_horizon_ns(), 100000u);
  EXPECT_EQ(four.busy_horizon_ns(), 25000u);
}

// --- Account shards -------------------------------------------------------

// The single-atomic fluid queue the shards replace: the reference for
// charges that one host thread at a time makes.
struct ReferenceQueue {
  uint64_t work_ns = 0;
  uint64_t Charge(uint64_t now_ns, uint64_t service_ns) {
    const uint64_t backlog = work_ns;
    work_ns += service_ns;
    return backlog > now_ns ? backlog - now_ns : 0;
  }
};

class AccountShardCountTest : public ::testing::TestWithParam<int> {};

// N threads x M charges, all threads live at once: every counter and both
// horizons are exact whether a thread owns a shard or shares the overflow
// shard (2 x kShards threads leave at least kShards of them without one).
TEST_P(AccountShardCountTest, CountersAndHorizonsAreExact) {
  const int threads = GetParam();
  constexpr uint64_t kCharges = 20000;
  CostModel cost;
  cost.nic_mops = 10.0;  // 100ns per message
  NicModel nic(cost);
  CpuModel cpu(cost, /*cores=*/2);
  std::latch start(threads);
  std::latch finished(threads);
  std::vector<int> slots(static_cast<size_t>(threads), -1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (uint64_t i = 0; i < kCharges; ++i) {
        nic.ChargeVerb(/*now_ns=*/i, 1.0, /*bytes=*/8, /*doorbells=*/1);
        if (i % 2 == 0) {
          cpu.ChargeRpc(i, /*service_us=*/1.0);
        }
      }
      slots[static_cast<size_t>(t)] = account_slot::t_slot;
      // Hold the slot until every thread has charged, so the threads
      // beyond kShards find no free one.
      finished.arrive_and_wait();
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const uint64_t total = static_cast<uint64_t>(threads) * kCharges;
  EXPECT_EQ(nic.messages(), total);
  EXPECT_EQ(nic.bytes(), 8 * total);
  EXPECT_EQ(nic.doorbells(), total);
  EXPECT_EQ(nic.busy_horizon_ns(), 100 * total);
  EXPECT_EQ(cpu.ops(), total / 2);
  EXPECT_EQ(cpu.busy_horizon_ns(), 500 * (total / 2)) << "1us over 2 cores";
  if (threads > QueueingServer::kShards) {
    EXPECT_GT(std::count(slots.begin(), slots.end(), QueueingServer::kShards), 0)
        << "some threads charged through the overflow shard";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AccountShardCountTest,
                         ::testing::Values(1, 4, QueueingServer::kShards,
                                           2 * QueueingServer::kShards));

// Sequential handoffs between host threads -- the calling thread, a worker
// that joins, a second worker (which may reuse the first one's slot), the
// calling thread again and a fresh worker -- observe exactly the backlog of
// one shared fluid queue on every charge, across refresh boundaries.
TEST(AccountShardTest, HandoffsMatchSingleAtomicQueue) {
  QueueingServer server;
  ReferenceQueue reference;
  constexpr int kChargesPerTurn = 3 * QueueingServer::kRefreshCharges + 5;
  uint64_t step = 0;
  auto turn = [&] {
    for (int i = 0; i < kChargesPerTurn; ++i, ++step) {
      const uint64_t now = step * 37;
      const uint64_t service = 40 + (step * 13) % 100;
      const uint64_t want = reference.Charge(now, service);
      ASSERT_EQ(server.Charge(now, service), want) << "charge " << step;
    }
  };
  auto on_new_thread = [&] {
    std::thread worker(turn);
    worker.join();
  };
  turn();
  on_new_thread();  // A
  on_new_thread();  // B
  turn();
  on_new_thread();  // A again: a fresh thread
  EXPECT_EQ(server.next_free_ns(), reference.work_ns);
}

// Four threads saturate one node at now = 0. The horizon is exact, and every
// delay lies within the staleness contract of nic_model.h: it includes all
// own earlier work and every other thread's charge that completed before this
// thread's last refresh (at most kRefreshCharges - 1 own charges back). From
// above, a charge cannot see work that other threads charged only after
// observing this thread's later progress, which the lockstep window bounds.
TEST(AccountShardTest, ConcurrentDelaysStayWithinStalenessBound) {
  constexpr int kThreads = 4;
  constexpr uint64_t kCharges = 100000;
  constexpr uint64_t kService = 100;
  constexpr uint64_t kRefresh = QueueingServer::kRefreshCharges;
  constexpr uint64_t kWindow = 16 * kRefresh;
  QueueingServer server;
  std::array<std::atomic<uint64_t>, kThreads> done{};
  std::atomic<uint64_t> violations{0};
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint64_t> others_done(kCharges);  // before charge i
      start.arrive_and_wait();
      for (uint64_t i = 0; i < kCharges; ++i) {
        // Loose lockstep: charge i starts only once every thread has done
        // i - kWindow, so the threads' charges really interleave, and another
        // thread's charges visible here number fewer than i + 2 * kWindow.
        if (i % kWindow == 0) {
          for (int o = 0; o < kThreads; ++o) {
            while (done[o].load(std::memory_order_acquire) + kWindow < i) {
              std::this_thread::yield();
            }
          }
        }
        uint64_t before = 0;
        for (int o = 0; o < kThreads; ++o) {
          if (o != t) {
            before += done[o].load(std::memory_order_acquire);
          }
        }
        others_done[i] = before;
        const uint64_t delay = server.Charge(/*now_ns=*/0, kService);
        done[t].store(i + 1, std::memory_order_release);
        const uint64_t last_refresh = i >= kRefresh - 1 ? i - (kRefresh - 1) : 0;
        const uint64_t low = kService * (i + others_done[last_refresh]);
        const uint64_t high = kService * (i + (kThreads - 1) * (i + 2 * kWindow));
        if (delay < low || delay > high) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(server.next_free_ns(), kThreads * kCharges * kService);
}

TEST(VerbsTest, ReadChargesRttAndBytes) {
  CostModel cost;
  RemoteNode node(4096, cost);
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  uint8_t buf[256];
  verbs.Read(0, buf, sizeof(buf));
  // 2us RTT + 256/12500 us wire time.
  EXPECT_NEAR(ctx.clock().busy_us(), 2.0 + 256.0 / 12500.0, 0.01);
  EXPECT_EQ(ctx.reads, 1u);
  EXPECT_EQ(node.nic().messages(), 1u);
}

TEST(VerbsTest, AsyncWriteChargesOnlyPostOverhead) {
  CostModel cost;
  RemoteNode node(4096, cost);
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  uint64_t v = 7;
  verbs.WriteAsync(64, &v, 8);
  EXPECT_NEAR(ctx.clock().busy_us(), cost.async_post_us, 1e-9);
  // The data still lands.
  EXPECT_EQ(node.arena().ReadU64(64), 7u);
  // And the NIC still counts the message.
  EXPECT_EQ(node.nic().messages(), 1u);
}

TEST(VerbsTest, RpcRunsHandlerAndChargesCpu) {
  CostModel cost;
  RemoteNode node(4096, cost, /*controller_cores=*/1);
  node.RegisterRpc(99, [](std::string_view req, std::string* response) {
    response->assign(req);
    response->append("-pong");
  });
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  EXPECT_EQ(verbs.Rpc(99, "ping"), "ping-pong");
  EXPECT_EQ(node.cpu().ops(), 1u);
  std::string reused;
  verbs.Rpc(99, "ping", &reused);
  EXPECT_EQ(reused, "ping-pong") << "caller-buffer overload returns the same payload";
  EXPECT_EQ(node.cpu().ops(), 2u) << "both overloads charge the controller CPU";
  EXPECT_GT(ctx.clock().busy_us(), cost.rpc_service_us);
}

TEST(VerbsTest, SleepAdvancesOnlyClientClock) {
  RemoteNode node(4096, CostModel{});
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  verbs.Sleep(500.0);
  EXPECT_NEAR(ctx.clock().busy_us(), 500.0, 1e-9);
  EXPECT_EQ(node.nic().messages(), 0u);
}

TEST(VerbsTest, SaturatedNicInflatesLatency) {
  CostModel cost;
  cost.nic_mops = 1.0;  // 1us per message: very slow NIC
  RemoteNode node(4096, cost);
  ClientContext a(0);
  ClientContext b(1);
  Verbs va(&node, &a);
  Verbs vb(&node, &b);
  uint64_t buf;
  // Client a floods the NIC at virtual time 0.
  for (int i = 0; i < 1000; ++i) {
    va.Read(0, &buf, 8);
  }
  // Client b arrives at virtual time 0 and must queue behind a's traffic in
  // proportion to the backlog.
  vb.Read(0, &buf, 8);
  EXPECT_GT(b.clock().busy_us(), 100.0);
}

}  // namespace
}  // namespace ditto::rdma
