// Socketless tests of net::Connection's batch contract, driven through a fake
// ConnectionHost that counts every call: one in-flight budget charge per read
// batch, one ExecuteBatch per run of GET/SET commands, replies in command
// order (including per-key program order inside a run), and -LOADSHED in the
// slot of every command shed when the batch reservation is refused.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/ditto_client.h"
#include "dm/pool.h"
#include "net/connection.h"
#include "net/resp.h"
#include "sim/adapters.h"

namespace ditto::net {
namespace {

// Forwards to a real cache client, recording each ExecuteBatch call's ops.
class CountingClient : public sim::CacheClient {
 public:
  explicit CountingClient(sim::CacheClient* inner) : inner_(inner) {}

  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override {
    calls_.emplace_back();
    for (const sim::CacheOp& op : ops) {
      calls_.back().push_back(op.kind);
    }
    inner_->ExecuteBatch(ops, results);
  }
  rdma::ClientContext& ctx() override { return inner_->ctx(); }
  sim::ClientCounters counters() const override { return inner_->counters(); }
  void ResetForMeasurement() override { inner_->ResetForMeasurement(); }

  const std::vector<std::vector<sim::OpKind>>& calls() const { return calls_; }

 private:
  sim::CacheClient* inner_;
  std::vector<std::vector<sim::OpKind>> calls_;
};

// A ConnectionHost with an in-flight budget of `budget` ops (0 = unlimited)
// that counts its calls.
class FakeHost : public ConnectionHost {
 public:
  FakeHost(sim::CacheClient* client, uint64_t budget) : client_(client), budget_(budget) {}

  bool AcquireOps(size_t n) override {
    acquire_calls.push_back(n);
    if (budget_ != 0 && inflight_ + n > budget_) {
      return false;
    }
    inflight_ += n;
    return true;
  }
  void ReleaseOps(size_t n) override {
    release_calls.push_back(n);
    inflight_ -= n;
  }
  sim::CacheClient* client() override { return client_; }
  void FormatInfo(std::string* out) override { *out = "info"; }
  void OnCommands(uint64_t commands, uint64_t ops, uint64_t shed_ops) override {
    on_commands_calls++;
    this->commands += commands;
    this->ops += ops;
    this->shed_ops += shed_ops;
  }
  const RespLimits& limits() override { return limits_; }

  uint64_t inflight() const { return inflight_; }

  std::vector<size_t> acquire_calls;
  std::vector<size_t> release_calls;
  int on_commands_calls = 0;
  uint64_t commands = 0;
  uint64_t ops = 0;
  uint64_t shed_ops = 0;

 private:
  sim::CacheClient* client_;
  uint64_t budget_;
  uint64_t inflight_ = 0;
  RespLimits limits_;
};

// One pool + server + Ditto client behind a CountingClient, and a
// Connection on a FakeHost with the given budget.
struct Rig {
  explicit Rig(uint64_t budget)
      : pool(PoolConfig()),
        server(&pool, core::DittoConfig{}),
        ctx(0),
        ditto(&pool, &ctx, core::DittoConfig{}),
        client(&ditto),
        host(&client, budget),
        conn(-1, &host) {}

  static dm::PoolConfig PoolConfig() {
    dm::PoolConfig config;
    config.memory_bytes = 16 << 20;
    config.num_buckets = 1024;
    config.capacity_objects = 1000;
    config.cost = rdma::CostModel::Disabled();
    return config;
  }

  // Feeds `input` as one read batch; returns the replies it produced.
  std::string Process(std::string_view input) {
    conn.in().Append(input);
    EXPECT_TRUE(conn.ProcessInput());
    std::string out(conn.out().view());
    conn.out().Consume(conn.out().size());
    return out;
  }

  dm::MemoryPool pool;
  core::DittoServer server;
  rdma::ClientContext ctx;
  sim::DittoCacheClient ditto;
  CountingClient client;
  FakeHost host;
  Connection conn;
};

using Kinds = std::vector<sim::OpKind>;
constexpr sim::OpKind kGet = sim::OpKind::kGet;
constexpr sim::OpKind kSet = sim::OpKind::kSet;

TEST(ConnectionBatchTest, MixedBatchRepliesInOrderWithOneChargeAndOneCallPerRun) {
  Rig rig(/*budget=*/0);
  const std::string replies = rig.Process(
      "SET k v1\r\nGET k\r\nSET k v2 EX 100\r\nGET k\r\nGET a b\r\nDEL k\r\nGET k\r\nPING\r\n");
  EXPECT_EQ(replies,
            "+OK\r\n"
            "$2\r\nv1\r\n"
            "+OK\r\n"
            "$2\r\nv2\r\n"
            "-ERR wrong number of arguments for 'get' command\r\n"
            ":1\r\n"
            "$-1\r\n"
            "+PONG\r\n");

  // One budget charge for the batch's 7 ops (GET a b is charged, as a
  // parsed GET with a key), released once.
  EXPECT_EQ(rig.host.acquire_calls, std::vector<size_t>{7});
  EXPECT_EQ(rig.host.release_calls, std::vector<size_t>{7});
  EXPECT_EQ(rig.host.inflight(), 0u);

  // The first GET/SET run is one call in command order (the arity error
  // answers in its slot without an op); DEL ends the run and executes on its
  // own; the GET after it is the second run.
  const std::vector<Kinds> expected_calls = {
      {kSet, kGet, kSet, kGet}, {sim::OpKind::kDelete}, {kGet}};
  EXPECT_EQ(rig.client.calls(), expected_calls);

  // Executed ops: the arity error was charged but executed nothing.
  EXPECT_EQ(rig.host.on_commands_calls, 1);
  EXPECT_EQ(rig.host.commands, 8u);
  EXPECT_EQ(rig.host.ops, 6u);
  EXPECT_EQ(rig.host.shed_ops, 0u);
}

TEST(ConnectionBatchTest, EverySetFormAndItsErrorsAnswerInTheirSlots) {
  // The DEL leaves the op scratch at one op; the GET/SET run after it is
  // eight commands long.
  Rig rig(/*budget=*/0);
  const std::string replies = rig.Process(
      "DEL z\r\nSET a 1 PX 5\r\nSET b 2 TTL 7\r\nset c 3 ex 9\r\nSET d 4 EX x\r\nSET e\r\n"
      "SET f 6 EX\r\nGET a\r\nGET c\r\n");
  EXPECT_EQ(replies,
            ":0\r\n"
            "+OK\r\n"
            "+OK\r\n"
            "+OK\r\n"
            "-ERR value is not an integer or out of range\r\n"
            "-ERR wrong number of arguments for 'set' command\r\n"
            "-ERR syntax error\r\n"
            "$1\r\n1\r\n"
            "$1\r\n3\r\n");
  const std::vector<Kinds> expected_calls = {{sim::OpKind::kDelete},
                                             {kSet, kSet, kSet, kGet, kGet}};
  EXPECT_EQ(rig.client.calls(), expected_calls);
}

TEST(ConnectionBatchTest, RefusedReservationShedsPerCommandInItsSlot) {
  // Budget 2: the batch's 4 ops do not fit, so admission falls back to one
  // AcquireOps per command and the commands past the budget are shed.
  Rig rig(/*budget=*/2);
  const std::string replies = rig.Process("GET a\r\nGET b\r\nGET c\r\nPING\r\nSET d x\r\n");
  EXPECT_EQ(replies,
            "$-1\r\n"
            "$-1\r\n"
            "-LOADSHED server over in-flight op watermark, retry\r\n"
            "+PONG\r\n"
            "-LOADSHED server over in-flight op watermark, retry\r\n");
  EXPECT_EQ(rig.host.acquire_calls, (std::vector<size_t>{4, 1, 1, 1, 1}));
  EXPECT_EQ(rig.host.release_calls, std::vector<size_t>{2});
  EXPECT_EQ(rig.host.inflight(), 0u);
  // The shed GET stays in its run without an op; the shed SET's run has no
  // op and makes no call.
  const std::vector<Kinds> expected_calls = {{kGet, kGet}};
  EXPECT_EQ(rig.client.calls(), expected_calls);
  EXPECT_EQ(rig.host.commands, 5u);
  EXPECT_EQ(rig.host.ops, 2u);
  EXPECT_EQ(rig.host.shed_ops, 2u);

  // The next batch fits and is charged once again.
  EXPECT_EQ(rig.Process("SET d x\r\nGET d\r\n"), "+OK\r\n$1\r\nx\r\n");
  EXPECT_EQ(rig.host.acquire_calls.back(), 2u);
  EXPECT_EQ(rig.host.release_calls.back(), 2u);
}

TEST(ConnectionBatchTest, BatchWithoutCacheOpsChargesNothing) {
  Rig rig(/*budget=*/1);
  EXPECT_EQ(rig.Process("PING\r\nPING hi\r\n"), "+PONG\r\n$2\r\nhi\r\n");
  EXPECT_TRUE(rig.host.acquire_calls.empty());
  EXPECT_TRUE(rig.host.release_calls.empty());
  EXPECT_TRUE(rig.client.calls().empty());
  EXPECT_EQ(rig.host.commands, 2u);
}

}  // namespace
}  // namespace ditto::net
