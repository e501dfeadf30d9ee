// NicModel / CpuModel: virtual-time service accounts for the memory node's
// RNIC message rate and controller CPU. Both are fluid-queue servers: each
// request appends its service time to the server's cumulative work W, and a
// client at virtual time `now` observes queueing delay max(0, W_before -
// now). For closed-loop clients this is self-stabilizing — once demand
// exceeds capacity, W runs ahead of every client's clock and the delays
// throttle aggregate throughput to exactly the service rate — and, unlike an
// FCFS-horizon model, it has no artifact when clients at different virtual
// times share one server.
//
// Account shards. Every simulated verb charges one of these accounts, and
// the host threads that drive clients (replay workers, server reactors)
// charge the same node at once. One shared atomic per counter would move a
// cache line between cores on every verb, so each account keeps kShards
// cache-line-sized shards and every host thread owns one: a thread takes a
// process-wide slot (common/account_slot.h) on its first charge and returns
// it when it exits, so a slot has at most one live owner. The owner adds
// its work and counters to its shard with a relaxed load+store (it is the
// only writer); threads beyond kShards share an overflow shard updated with
// atomic RMWs. Readers sum every shard, so messages(), bytes(), doorbells(),
// ops() and busy_horizon_ns() are exact once the charging threads are
// ordered before the read (joined, or otherwise synchronized).
//
// Staleness contract. A charge observes
//   W_before = own shard's work + a cached sum of the other shards' work.
// A thread re-sums the other shards (a refresh) on its first charge to the
// account, whenever any thread has newly claimed a shard of the account (a
// per-account epoch, written only at claims), and every kRefreshCharges of
// its own charges. Overflow threads re-sum on every charge. Hence:
//   - One host thread charging, or a change of charging thread that goes
//     through a thread start (kPartitioned phases start fresh workers), is
//     exact: the fresh thread's first charge claims a shard and bumps the
//     epoch, so it and every thread charging after it re-sum first.
//   - Under concurrent charges W_before is never above the exact work sum
//     and is below it by at most the work other threads charged since this
//     thread's last refresh, which was at most kRefreshCharges - 1 own
//     charges ago. Such runs are nondeterministic with one shared counter
//     too (the delays depend on the interleaving).
//   - Two long-lived threads that take turns on one account with no claim
//     in between may see each other's work up to kRefreshCharges - 1
//     charges late.
// Reset() must run while no thread charges the account.
#ifndef DITTO_RDMA_NIC_MODEL_H_
#define DITTO_RDMA_NIC_MODEL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/account_slot.h"
#include "rdma/cost_model.h"

namespace ditto::rdma {

class QueueingServer {
 public:
  static constexpr int kShards = account_slot::kShards;
  // A refresh reads the other threads' shard lines, each dirty in another
  // core's cache, and each owner then re-takes its line on its next charge:
  // about 2 * (T - 1) line transfers per refresh for T charging threads,
  // against one transfer per counter on every charge for a shared atomic.
  // Refreshing every R own charges costs 2 * (T - 1) / R transfers per
  // charge, 0.09 at T = 4 and R = 64. Measured with 4 threads posting READs
  // to one node on a 4-vCPU Xeon VM, a verb cost ~80 ns at R = 32, ~57 ns
  // at R = 64, ~54 ns at R = 128 and ~42 ns with no periodic refresh, so 64
  // is the knee. The price is staleness: at most R - 1 charges of each
  // other thread, 3 * 63 * 13 ns ~ 2.5 us of unseen NIC backlog at T = 4
  // and the default 75 Mmsg/s, about one 2 us READ round trip.
  static constexpr uint32_t kRefreshCharges = 64;
  static constexpr int kCounters = 3;
  using Counts = std::array<uint64_t, kCounters>;

  QueueingServer() = default;
  QueueingServer(const QueueingServer&) = delete;
  QueueingServer& operator=(const QueueingServer&) = delete;

  // ditto-lint: hot-path-begin(verb-charge)
  // Appends service_ns of work and adds `counts` to the counters. Returns
  // the queueing delay in ns a request issued at client-virtual-time now_ns
  // observes.
  uint64_t Charge(uint64_t now_ns, uint64_t service_ns, const Counts& counts = {}) {
    const int slot = account_slot::Current();
    Shard& shard = shards_[slot];
    uint64_t backlog;
    if (slot == kShards) {
      backlog = ChargeOverflow(service_ns);
    } else {
      if (shard.owner.load(std::memory_order_relaxed) != account_slot::t_token ||
          shard.seen_epoch.load(std::memory_order_relaxed) !=
              epoch_.load(std::memory_order_relaxed) ||
          shard.refresh_in.load(std::memory_order_relaxed) == 0) {
        Refresh(shard);
      }
      shard.refresh_in.store(shard.refresh_in.load(std::memory_order_relaxed) - 1,
                             std::memory_order_relaxed);
      const uint64_t own = shard.work_ns.load(std::memory_order_relaxed);
      shard.work_ns.store(own + service_ns, std::memory_order_relaxed);
      backlog = own + shard.others_ns.load(std::memory_order_relaxed);
    }
    AddCounts(shard, slot, counts);
    return backlog > now_ns ? backlog - now_ns : 0;
  }

  // Adds `counts` to the counters without charging work.
  void Count(const Counts& counts) {
    const int slot = account_slot::Current();
    AddCounts(shards_[slot], slot, counts);
  }

  // Total accumulated work: a lower bound on the elapsed time of any run
  // that pushed this much service through the server.
  uint64_t next_free_ns() const;
  uint64_t count(int counter) const;
  void Reset();

 private:
  struct alignas(kCacheLineBytes) Shard {
    // Summed by readers and by other threads' refreshes.
    std::atomic<uint64_t> work_ns{0};
    std::array<std::atomic<uint64_t>, kCounters> counts{};
    // Touched only by the owning thread (and by Reset): the owner's token,
    // its cached sum of the other shards' work, the epoch that sum saw, and
    // the own charges left until the next refresh.
    std::atomic<uint64_t> owner{0};
    std::atomic<uint64_t> others_ns{0};
    std::atomic<uint64_t> seen_epoch{0};
    std::atomic<uint64_t> refresh_in{0};
  };
  static_assert(sizeof(Shard) == kCacheLineBytes, "one shard per cache line");

  static void AddCounts(Shard& shard, int slot, const Counts& counts) {
    for (int i = 0; i < kCounters; ++i) {
      if (slot == kShards) {
        shard.counts[i].fetch_add(counts[i], std::memory_order_relaxed);
      } else {
        account_slot::Bump(shard.counts[i], counts[i]);
      }
    }
  }
  // ditto-lint: hot-path-end(verb-charge)

  // Claims `mine` for the calling thread if it does not own it yet, then
  // re-sums the other shards' work into its cache.
  void Refresh(Shard& mine);
  // Backlog seen by an overflow thread: atomic add plus a fresh sum.
  uint64_t ChargeOverflow(uint64_t service_ns);

  std::array<Shard, kShards + 1> shards_{};
  // Bumped at every claim and Reset; read by every charge, so it sits on
  // its own line that stays shared in all cores' caches.
  alignas(kCacheLineBytes) std::atomic<uint64_t> epoch_{0};
};

class NicModel {
 public:
  explicit NicModel(const CostModel& cost) : cost_(cost) {}

  // Charges one message with the given slot cost (1.0 for READ/WRITE,
  // cost_.atomic_msg_cost for atomics). Returns queueing delay in ns.
  uint64_t ChargeMessage(uint64_t now_ns, double msg_cost) {
    return ChargeVerb(now_ns, msg_cost, 0, 0);
  }

  // Charges one message together with its payload bytes and the doorbells
  // (MMIO rings) it accounts for: unbatched posts ring once per verb,
  // doorbell-batched chains once per flush. Returns queueing delay in ns.
  uint64_t ChargeVerb(uint64_t now_ns, double msg_cost, uint64_t bytes, uint64_t doorbells) {
    const QueueingServer::Counts counts{1, bytes, doorbells};
    if (!cost_.enabled) {
      server_.Count(counts);
      return 0;
    }
    return server_.Charge(now_ns, static_cast<uint64_t>(cost_.NicServiceNs(msg_cost)), counts);
  }

  uint64_t messages() const { return server_.count(kMessages); }
  uint64_t doorbells() const { return server_.count(kDoorbells); }
  uint64_t bytes() const { return server_.count(kBytes); }
  // Serial completion horizon of the NIC, a lower bound on elapsed time.
  uint64_t busy_horizon_ns() const { return server_.next_free_ns(); }

  void Reset() { server_.Reset(); }

 private:
  enum : int { kMessages = 0, kBytes = 1, kDoorbells = 2 };

  CostModel cost_;
  QueueingServer server_;
};

// The controller CPU of a memory node: `cores` servers approximated as one
// fast server (rate = cores / service_time).
class CpuModel {
 public:
  CpuModel(const CostModel& cost, int cores) : cost_(cost), cores_(cores) {}

  // Charges one RPC whose handler costs service_us of one core. Returns
  // queueing delay in ns observed by the caller.
  uint64_t ChargeRpc(uint64_t now_ns, double service_us) {
    if (!cost_.enabled) {
      server_.Count({1, 0, 0});  // kOps
      return 0;
    }
    const auto effective_ns =
        static_cast<uint64_t>(service_us * 1000.0 / static_cast<double>(cores_));
    return server_.Charge(now_ns, effective_ns, {1, 0, 0});  // kOps
  }

  int cores() const { return cores_; }
  uint64_t ops() const { return server_.count(kOps); }
  uint64_t busy_horizon_ns() const { return server_.next_free_ns(); }

  void Reset() { server_.Reset(); }

 private:
  enum : int { kOps = 0 };

  CostModel cost_;
  const int cores_;
  QueueingServer server_;
};

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_NIC_MODEL_H_
