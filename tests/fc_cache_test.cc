#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rand.h"
#include "core/fc_cache.h"
#include "dm/pool.h"
#include "hashtable/hash_table.h"
#include "rdma/verbs.h"

namespace ditto::core {
namespace {

class FcCacheTest : public ::testing::Test {
 protected:
  FcCacheTest()
      : pool_(MakeConfig()), ctx_(0), verbs_(&pool_.node(), &ctx_), table_(&pool_, &verbs_) {}

  static dm::PoolConfig MakeConfig() {
    dm::PoolConfig config;
    config.memory_bytes = 1 << 20;
    config.num_buckets = 64;
    config.cost = rdma::CostModel::Disabled();
    return config;
  }

  uint64_t FreqAt(uint64_t slot_addr) { return table_.ReadSlot(slot_addr).freq; }

  dm::MemoryPool pool_;
  rdma::ClientContext ctx_;
  rdma::Verbs verbs_;
  ht::HashTable table_;
};

TEST_F(FcCacheTest, BuffersUntilThreshold) {
  FcCache fc(&table_, /*threshold=*/10, /*capacity_bytes=*/1 << 20, /*enabled=*/true);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  for (int i = 0; i < 9; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(FreqAt(slot), 0u) << "no remote FAA before the threshold";
  EXPECT_EQ(fc.flushes(), 0u);
  fc.RecordAccess(slot, 16);  // 10th access triggers the flush
  EXPECT_EQ(FreqAt(slot), 10u);
  EXPECT_EQ(fc.flushes(), 1u);
  EXPECT_EQ(fc.entry_count(), 0u);
}

TEST_F(FcCacheTest, ReducesFaaByThresholdFactor) {
  FcCache fc(&table_, 10, 1 << 20, true);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  const uint64_t atomics_before = ctx_.atomics;
  for (int i = 0; i < 100; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(ctx_.atomics - atomics_before, 10u) << "1 FAA per 10 accesses";
  EXPECT_EQ(FreqAt(slot), 100u);
}

TEST_F(FcCacheTest, CapacityEvictsOldestEntry) {
  // Each entry costs 16 + 24 = 40 bytes; capacity of 100 holds two entries.
  FcCache fc(&table_, 100, /*capacity_bytes=*/100, true);
  const uint64_t s1 = table_.BucketSlotAddr(1, 0);
  const uint64_t s2 = table_.BucketSlotAddr(2, 0);
  const uint64_t s3 = table_.BucketSlotAddr(3, 0);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s2, 16);
  fc.RecordAccess(s3, 16);  // evicts s1 (earliest insert)
  EXPECT_EQ(FreqAt(s1), 1u) << "evicted entry flushed its delta";
  EXPECT_EQ(FreqAt(s2), 0u);
  EXPECT_LE(fc.bytes_used(), 100u);
}

TEST_F(FcCacheTest, FlushAllDrainsEverything) {
  FcCache fc(&table_, 100, 1 << 20, true);
  const uint64_t s1 = table_.BucketSlotAddr(1, 0);
  const uint64_t s2 = table_.BucketSlotAddr(2, 0);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s2, 16);
  fc.FlushAll();
  EXPECT_EQ(FreqAt(s1), 2u);
  EXPECT_EQ(FreqAt(s2), 1u);
  EXPECT_EQ(fc.entry_count(), 0u);
  EXPECT_EQ(fc.bytes_used(), 0u);
}

TEST_F(FcCacheTest, DisabledModeIssuesOneFaaPerAccess) {
  FcCache fc(&table_, 10, 1 << 20, /*enabled=*/false);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  const uint64_t atomics_before = ctx_.atomics;
  for (int i = 0; i < 7; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(ctx_.atomics - atomics_before, 7u);
  EXPECT_EQ(FreqAt(slot), 7u);
}

TEST_F(FcCacheTest, DisabledPassthroughDoesNotCountFlushes) {
  // Regression: the disabled-mode passthrough used to bump flushes_ per
  // access, which skewed the flush metric benches compare across the
  // ablation. A per-access FAA is not a flush of a buffered delta.
  FcCache fc(&table_, 10, 1 << 20, /*enabled=*/false);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  for (int i = 0; i < 25; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(fc.flushes(), 0u) << "passthrough FAAs must not count as flushes";
  EXPECT_EQ(fc.entry_count(), 0u);
  EXPECT_EQ(fc.bytes_used(), 0u);
}

TEST_F(FcCacheTest, CapacityHoldsOnThresholdFlushAccesses) {
  // Regression: the threshold-flush branch used to skip the capacity-eviction
  // loop, so an access that triggered a flush could return with bytes_used_
  // still above capacity_bytes_. The capacity bound must hold after EVERY
  // access, whichever branch it takes.
  constexpr size_t kCapacity = 120;  // three 40-byte entries
  FcCache fc(&table_, /*threshold=*/2, kCapacity, /*enabled=*/true);
  Rng rng(0xFCFC);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t slot = table_.BucketSlotAddr(1 + rng.NextBelow(8), 0);
    // Vary the entry footprint so threshold flushes interleave with inserts
    // that push the buffer over capacity.
    fc.RecordAccess(slot, 8 + rng.NextBelow(64));
    ASSERT_LE(fc.bytes_used(), kCapacity)
        << "access " << i << " left the buffer over capacity";
  }
  fc.FlushAll();
  EXPECT_EQ(fc.bytes_used(), 0u);
}

TEST_F(FcCacheTest, SeparateSlotsTrackedIndependently) {
  FcCache fc(&table_, 3, 1 << 20, true);
  const uint64_t s1 = table_.BucketSlotAddr(1, 0);
  const uint64_t s2 = table_.BucketSlotAddr(2, 0);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s2, 16);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s1, 16);  // s1 hits threshold 3
  EXPECT_EQ(FreqAt(s1), 3u);
  EXPECT_EQ(FreqAt(s2), 0u);
  EXPECT_EQ(fc.entry_count(), 1u);
}

TEST_F(FcCacheTest, StaleRecordNamesReinsertedEntry) {
  // A threshold flush leaves its FIFO record behind; once the address is
  // inserted again, that older record names the new entry, so the capacity
  // flush evicts the re-inserted entry ahead of an entry inserted before it.
  constexpr size_t kCapacity = 120;  // three 40-byte entries
  FcCache fc(&table_, /*threshold=*/2, kCapacity, /*enabled=*/true, /*max_age_accesses=*/0);
  const uint64_t a = table_.BucketSlotAddr(1, 0);
  const uint64_t b = table_.BucketSlotAddr(2, 0);
  const uint64_t c = table_.BucketSlotAddr(3, 0);
  const uint64_t d = table_.BucketSlotAddr(4, 0);
  fc.RecordAccess(a, 16);
  fc.RecordAccess(b, 16);
  fc.RecordAccess(a, 16);  // threshold flush of a; its record stays queued
  EXPECT_EQ(FreqAt(a), 2u);
  fc.RecordAccess(a, 16);  // a re-inserted behind b
  fc.RecordAccess(c, 16);  // 120 bytes: at capacity, nothing evicted
  fc.RecordAccess(d, 16);  // over capacity: the stale record evicts the new a
  EXPECT_EQ(FreqAt(a), 3u);
  EXPECT_EQ(FreqAt(b), 0u);
  EXPECT_EQ(fc.PendingDelta(a), 0u);
  EXPECT_EQ(fc.PendingDelta(b), 1u);
  EXPECT_EQ(fc.entry_count(), 3u);
}

// --- Differential test against the node-based reference -------------------

using Faa = std::pair<uint64_t, uint64_t>;  // (slot address, delta)

// The FC cache as it was built on std::unordered_map + std::deque, kept as
// the reference model for the flat layout. Identical logic; it records each
// FAA it would post instead of posting it. Each FIFO record also remembers
// its insert sequence, which the logic never reads: it only counts how often
// a record names an entry inserted after it (the stale-record case).
class ReferenceFcCache {
 public:
  ReferenceFcCache(int threshold, size_t capacity_bytes, uint64_t max_age_accesses)
      : threshold_(threshold), capacity_bytes_(capacity_bytes),
        max_age_accesses_(max_age_accesses) {}

  void RecordAccess(uint64_t slot_addr, size_t object_id_bytes) {
    auto [it, inserted] = entries_.try_emplace(slot_addr);
    Entry& entry = it->second;
    if (inserted) {
      entry.insert_seq = seq_++;
      entry.bytes = object_id_bytes + 24;
      bytes_used_ += entry.bytes;
      fifo_.push_back({slot_addr, entry.insert_seq});
    }
    entry.delta++;
    if (entry.delta >= static_cast<uint64_t>(threshold_)) {
      FlushEntry(slot_addr);
    }
    while (bytes_used_ > capacity_bytes_ && !entries_.empty()) {
      EvictOldest();
    }
    FlushAged();
  }

  void FlushAll() {
    while (!entries_.empty()) {
      FlushEntry(entries_.begin()->first);
    }
    fifo_.clear();
  }

  uint64_t PendingDelta(uint64_t slot_addr) const {
    const auto it = entries_.find(slot_addr);
    return it == entries_.end() ? 0 : it->second.delta;
  }
  size_t entry_count() const { return entries_.size(); }
  size_t bytes_used() const { return bytes_used_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t stale_hits() const { return stale_hits_; }
  std::vector<Faa>& posted() { return posted_; }

 private:
  struct Entry {
    uint64_t delta = 0;
    uint64_t insert_seq = 0;
    size_t bytes = 0;
  };
  struct Record {
    uint64_t addr;
    uint64_t seq;
  };

  std::unordered_map<uint64_t, Entry>::iterator Live(const Record& record) {
    const auto it = entries_.find(record.addr);
    if (it != entries_.end() && it->second.insert_seq != record.seq) {
      stale_hits_++;
    }
    return it;
  }

  void FlushAged() {
    if (max_age_accesses_ == 0) {
      return;
    }
    while (!fifo_.empty()) {
      const Record record = fifo_.front();
      const auto it = Live(record);
      if (it == entries_.end()) {
        fifo_.pop_front();
        continue;
      }
      if (seq_ - it->second.insert_seq < max_age_accesses_) {
        break;
      }
      fifo_.pop_front();
      FlushEntry(record.addr);
    }
  }

  void FlushEntry(uint64_t slot_addr) {
    const auto it = entries_.find(slot_addr);
    if (it == entries_.end()) {
      return;
    }
    if (it->second.delta > 0) {
      posted_.emplace_back(slot_addr, it->second.delta);
      flushes_++;
    }
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
  }

  void EvictOldest() {
    while (!fifo_.empty()) {
      const Record record = fifo_.front();
      fifo_.pop_front();
      if (Live(record) != entries_.end()) {
        FlushEntry(record.addr);
        return;
      }
    }
  }

  int threshold_;
  size_t capacity_bytes_;
  uint64_t max_age_accesses_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::deque<Record> fifo_;
  size_t bytes_used_ = 0;
  uint64_t seq_ = 0;
  uint64_t flushes_ = 0;
  uint64_t stale_hits_ = 0;
  std::vector<Faa> posted_;
};

// The production cache with its FAAs recorded in posting order.
class RecordingFcCache : public FcCache {
 public:
  using FcCache::FcCache;
  std::vector<Faa>& posted() { return posted_; }

 protected:
  void PostFaa(uint64_t slot_addr, uint64_t delta) override {
    posted_.emplace_back(slot_addr, delta);
  }

 private:
  std::vector<Faa> posted_;
};

struct DiffConfig {
  int threshold;
  size_t capacity_bytes;
  uint64_t max_age;
  uint64_t universe;  // distinct slot addresses in the stream
};

// Drives both caches with one seeded stream and compares them after every
// access. Returns the reference's stale-record count (for coverage checks).
uint64_t RunDifferential(ht::HashTable* table, const DiffConfig& cfg, uint64_t seed,
                         int accesses) {
  ReferenceFcCache ref(cfg.threshold, cfg.capacity_bytes, cfg.max_age);
  RecordingFcCache flat(table, cfg.threshold, cfg.capacity_bytes, /*enabled=*/true, cfg.max_age);
  Rng rng(seed);
  // Slot addresses of a table with several slots per bucket, spread over
  // buckets so the index sees clustered and scattered keys alike.
  std::vector<uint64_t> addrs(cfg.universe);
  for (uint64_t i = 0; i < cfg.universe; ++i) {
    addrs[i] = table->SlotAddr(i * 7 % table->num_slots());
  }
  const uint64_t hot = std::max<uint64_t>(1, cfg.universe / 8);
  for (int step = 0; step < accesses; ++step) {
    // Half the accesses go to a small hot set, so addresses reach the
    // threshold, flush and are re-inserted while their records are queued.
    const uint64_t pick = rng.NextBelow(2) == 0 ? rng.NextBelow(hot) : rng.NextBelow(cfg.universe);
    const uint64_t addr = addrs[pick];
    const size_t id_bytes = 8 + rng.NextBelow(64);
    ref.RecordAccess(addr, id_bytes);
    flat.RecordAccess(addr, id_bytes);
    // The FAA streams match element by element, in posting order.
    if (ref.posted() != flat.posted()) {
      ADD_FAILURE() << "FAA streams diverge at access " << step;
      return 0;
    }
    ref.posted().clear();
    flat.posted().clear();
    const uint64_t probe = addrs[rng.NextBelow(cfg.universe)];
    if (ref.PendingDelta(addr) != flat.PendingDelta(addr) ||
        ref.PendingDelta(probe) != flat.PendingDelta(probe) ||
        ref.entry_count() != flat.entry_count() || ref.bytes_used() != flat.bytes_used() ||
        ref.flushes() != flat.flushes()) {
      ADD_FAILURE() << "state diverges at access " << step;
      return 0;
    }
    if (step % 256 == 0) {
      for (const uint64_t a : addrs) {
        if (ref.PendingDelta(a) != flat.PendingDelta(a)) {
          ADD_FAILURE() << "PendingDelta diverges at access " << step;
          return 0;
        }
      }
    }
  }
  // FlushAll drains in FIFO order here and in hash order in the reference:
  // the same FAAs, possibly in a different order.
  ref.FlushAll();
  flat.FlushAll();
  std::sort(ref.posted().begin(), ref.posted().end());
  std::sort(flat.posted().begin(), flat.posted().end());
  EXPECT_EQ(ref.posted(), flat.posted());
  EXPECT_EQ(flat.entry_count(), 0u);
  EXPECT_EQ(flat.bytes_used(), 0u);
  return ref.stale_hits();
}

TEST_F(FcCacheTest, FlatLayoutMatchesNodeBasedReference) {
  uint64_t seed = 1;
  uint64_t stale_with_age = 0;
  uint64_t stale_without_age = 0;
  for (const int threshold : {2, 3, 5, 10}) {
    for (const size_t capacity : {size_t{120}, size_t{1000}, size_t{16} << 10, size_t{1} << 20}) {
      for (const uint64_t max_age : {uint64_t{0}, uint64_t{64}, uint64_t{512}}) {
        for (const uint64_t universe : {uint64_t{8}, uint64_t{64}, uint64_t{256}}) {
          SCOPED_TRACE(testing::Message() << "threshold=" << threshold << " capacity="
                                          << capacity << " max_age=" << max_age
                                          << " universe=" << universe);
          const uint64_t stale =
              RunDifferential(&table_, {threshold, capacity, max_age, universe}, seed++, 3000);
          (max_age == 0 ? stale_without_age : stale_with_age) += stale;
        }
      }
    }
  }
  // The streams reach the stale-record case on both flush paths: capacity
  // eviction (max_age 0) and the age flush.
  EXPECT_GT(stale_without_age, 0u);
  EXPECT_GT(stale_with_age, 0u);
}

TEST_F(FcCacheTest, IndexGrowsPastManyLiveEntries) {
  // No age or capacity limit: 5000 live entries force repeated doubling of
  // the index and the FIFO ring, with every delta still exact.
  RecordingFcCache fc(&table_, /*threshold=*/1000, /*capacity_bytes=*/size_t{1} << 30,
                      /*enabled=*/true, /*max_age_accesses=*/0);
  constexpr uint64_t kEntries = 5000;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < kEntries; ++i) {
      fc.RecordAccess(uint64_t{8} * i, 8);
    }
  }
  EXPECT_EQ(fc.entry_count(), kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(fc.PendingDelta(uint64_t{8} * i), 3u) << i;
  }
  fc.FlushAll();
  ASSERT_EQ(fc.posted().size(), kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(fc.posted()[i], Faa(uint64_t{8} * i, 3)) << "FlushAll drains in FIFO order";
  }
}

}  // namespace
}  // namespace ditto::core
