// account_slot: process-wide host-thread slots for single-writer shards.
//
// Shared counters that every host thread (replay workers, server reactors)
// updates on every simulated verb or op would move a cache line between
// cores each time. Their owners instead keep kShards cache-line-sized
// shards and let each host thread write only its own: a thread takes a slot
// on its first use and returns it when it exits, so a slot has at most one
// live owner. Threads beyond kShards share slot kShards, the overflow slot,
// whose users fall back to atomic RMWs.
//
// Users: rdma::QueueingServer (the NIC/CPU accounts, see rdma/nic_model.h)
// and LogicalClock's tick leases (common/clock.h). Bump() is also the
// increment of net::Server's per-reactor counters, which have one writer
// each without needing a slot.
#ifndef DITTO_COMMON_ACCOUNT_SLOT_H_
#define DITTO_COMMON_ACCOUNT_SLOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ditto {

inline constexpr size_t kCacheLineBytes = 64;

namespace account_slot {

// Number of host-thread slots; slot kShards is the shared overflow slot.
inline constexpr int kShards = 16;

// The calling thread's slot (-1 until its first use) and its owner token
// (unique per thread lifetime, never 0), so a shard can tell a new owner of
// a recycled slot from the thread that last wrote it.
inline constinit thread_local int t_slot = -1;
inline constinit thread_local uint64_t t_token = 0;

// Takes a free slot for the calling thread (kShards if none is free) and
// arranges for it to be returned when the thread exits. The return
// happens-before the next claim of the slot, so a new owner sees every
// store the previous owner made to its shards.
int Claim();

inline int Current() {
  const int slot = t_slot;
  return slot >= 0 ? slot : Claim();
}

// Adds `delta` to a counter with a single writer: a relaxed load+store, no
// RMW, so the line stays in the writer's cache. Readers load it relaxed.
inline void Bump(std::atomic<uint64_t>& value, uint64_t delta) {
  value.store(value.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace account_slot
}  // namespace ditto

#endif  // DITTO_COMMON_ACCOUNT_SLOT_H_
