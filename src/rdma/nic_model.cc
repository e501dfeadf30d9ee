#include "rdma/nic_model.h"

namespace ditto::rdma {

void QueueingServer::Refresh(Shard& mine) {
  uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (mine.owner.load(std::memory_order_relaxed) != account_slot::t_token) {
    mine.owner.store(account_slot::t_token, std::memory_order_relaxed);
    epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t others = 0;
  for (const Shard& shard : shards_) {
    if (&shard != &mine) {
      others += shard.work_ns.load(std::memory_order_relaxed);
    }
  }
  mine.others_ns.store(others, std::memory_order_relaxed);
  mine.seen_epoch.store(epoch, std::memory_order_relaxed);
  mine.refresh_in.store(kRefreshCharges, std::memory_order_relaxed);
}

uint64_t QueueingServer::ChargeOverflow(uint64_t service_ns) {
  uint64_t backlog = shards_[kShards].work_ns.fetch_add(service_ns, std::memory_order_relaxed);
  for (int i = 0; i < kShards; ++i) {
    backlog += shards_[i].work_ns.load(std::memory_order_relaxed);
  }
  return backlog;
}

uint64_t QueueingServer::next_free_ns() const {
  uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.work_ns.load(std::memory_order_relaxed);
  }
  return sum;
}

uint64_t QueueingServer::count(int counter) const {
  uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.counts[counter].load(std::memory_order_relaxed);
  }
  return sum;
}

void QueueingServer::Reset() {
  for (Shard& shard : shards_) {
    shard.work_ns.store(0, std::memory_order_relaxed);
    for (std::atomic<uint64_t>& c : shard.counts) {
      c.store(0, std::memory_order_relaxed);
    }
    // Owner 0 makes every thread's next charge a claim, which re-sums.
    shard.owner.store(0, std::memory_order_relaxed);
    shard.others_ns.store(0, std::memory_order_relaxed);
    shard.refresh_in.store(0, std::memory_order_relaxed);
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ditto::rdma
