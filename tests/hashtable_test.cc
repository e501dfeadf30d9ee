#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/hash.h"
#include "dm/pool.h"
#include "hashtable/hash_table.h"
#include "rdma/verbs.h"

namespace ditto::ht {
namespace {

dm::PoolConfig SmallPool() {
  dm::PoolConfig config;
  config.memory_bytes = 4 << 20;
  config.num_buckets = 256;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

TEST(LayoutTest, PackUnpackRoundTrip) {
  const uint64_t word = PackAtomic(0xAB, 4, 0x123456789ABCULL);
  EXPECT_EQ(AtomicFp(word), 0xAB);
  EXPECT_EQ(AtomicSize(word), 4);
  EXPECT_EQ(AtomicPointer(word), 0x123456789ABCULL);
}

TEST(LayoutTest, HistoryTagDetected) {
  SlotView slot;
  slot.atomic_word = PackAtomic(0x11, kHistorySizeTag, 42);
  EXPECT_TRUE(slot.IsHistory());
  EXPECT_FALSE(slot.IsObject());
  EXPECT_FALSE(slot.IsEmpty());
  EXPECT_EQ(slot.history_id(), 42u);
}

TEST(LayoutTest, EmptySlotDetected) {
  SlotView slot;
  EXPECT_TRUE(slot.IsEmpty());
  EXPECT_FALSE(slot.IsObject());
  EXPECT_FALSE(slot.IsHistory());
}

class HashTableTest : public ::testing::Test {
 protected:
  HashTableTest()
      : pool_(SmallPool()), ctx_(0), verbs_(&pool_.node(), &ctx_), table_(&pool_, &verbs_) {}

  dm::MemoryPool pool_;
  rdma::ClientContext ctx_;
  rdma::Verbs verbs_;
  HashTable table_;
};

TEST_F(HashTableTest, GeometryMatchesConfig) {
  EXPECT_EQ(table_.num_buckets(), 256u);
  EXPECT_EQ(table_.slots_per_bucket(), 8);
  EXPECT_EQ(table_.num_slots(), 2048u);
  EXPECT_EQ(table_.SlotAddr(1) - table_.SlotAddr(0), kSlotBytes);
}

TEST_F(HashTableTest, CasPublishesAndReadBucketSeesIt) {
  const uint64_t slot_addr = table_.BucketSlotAddr(3, 2);
  const uint64_t desired = PackAtomic(0x42, 4, 0xC0FFEE);
  EXPECT_TRUE(table_.CasAtomic(slot_addr, 0, desired));
  EXPECT_FALSE(table_.CasAtomic(slot_addr, 0, desired)) << "second CAS must fail";

  std::vector<SlotView> bucket;
  table_.ReadBucket(3, &bucket);
  EXPECT_EQ(bucket[2].atomic_word, desired);
  EXPECT_TRUE(bucket[2].IsObject());
  EXPECT_EQ(bucket[2].fp(), 0x42);
  EXPECT_EQ(bucket[2].pointer(), 0xC0FFEEu);
}

TEST_F(HashTableTest, MetadataWriteReadRoundTrip) {
  const uint64_t slot_addr = table_.BucketSlotAddr(5, 0);
  table_.WriteAllMetadata(slot_addr, /*hash=*/111, /*insert_ts=*/222, /*last_ts=*/333,
                          /*freq=*/1);
  SlotView slot = table_.ReadSlot(slot_addr);
  EXPECT_EQ(slot.hash, 111u);
  EXPECT_EQ(slot.insert_ts, 222u);
  EXPECT_EQ(slot.last_ts, 333u);
  EXPECT_EQ(slot.freq, 1u);

  table_.WriteLastTs(slot_addr, 999);
  table_.AddFreq(slot_addr, 5);
  slot = table_.ReadSlot(slot_addr);
  EXPECT_EQ(slot.last_ts, 999u);
  EXPECT_EQ(slot.freq, 6u);
  EXPECT_EQ(slot.insert_ts, 222u) << "stateless neighbours untouched";
}

TEST_F(HashTableTest, SamplingReadsConsecutiveSlots) {
  // Fill a run of slots with recognizable pointers.
  for (uint64_t i = 100; i < 110; ++i) {
    table_.CasAtomic(table_.SlotAddr(i), 0, PackAtomic(1, 1, i));
  }
  std::vector<SlotView> sample;
  table_.ReadSlots(100, 5, &sample);
  ASSERT_EQ(sample.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sample[i].pointer(), 100u + i);
  }
}

TEST_F(HashTableTest, SamplingClampsAtTableEnd) {
  std::vector<SlotView> sample;
  EXPECT_TRUE(table_.ReadSlots(table_.num_slots() - 2, 5, &sample));
  EXPECT_EQ(sample.size(), 5u);  // clamped start, no out-of-bounds read
}

TEST_F(HashTableTest, SamplingReportsClampedStart) {
  // Mark the last slot so we can verify which window was actually read.
  const uint64_t last = table_.num_slots() - 1;
  table_.CasAtomic(table_.SlotAddr(last), 0, PackAtomic(1, 1, 0xBEEF));
  std::vector<SlotView> sample;
  uint64_t actual_start = 0;
  EXPECT_TRUE(table_.ReadSlots(table_.num_slots() + 100, 5, &sample, &actual_start));
  EXPECT_EQ(actual_start, table_.num_slots() - 5)
      << "the clamped start must be surfaced, not silently shifted";
  ASSERT_EQ(sample.size(), 5u);
  EXPECT_EQ(sample[4].pointer(), 0xBEEFu) << "window must end at the last slot";
}

TEST_F(HashTableTest, SamplingRejectsOversizedCount) {
  // Regression: count > num_slots() used to underflow `num_slots() - count`
  // and alias the READ into arbitrary table bytes. It must now fail cleanly
  // without issuing any verb.
  std::vector<SlotView> sample{SlotView{}};  // non-empty: must be cleared
  const uint64_t reads_before = ctx_.reads;
  EXPECT_FALSE(table_.ReadSlots(0, static_cast<int>(table_.num_slots()) + 1, &sample));
  EXPECT_TRUE(sample.empty());
  EXPECT_FALSE(table_.ReadSlots(0, 0, &sample));
  EXPECT_FALSE(table_.ReadSlots(0, -3, &sample));
  EXPECT_EQ(ctx_.reads, reads_before) << "rejected ranges must not touch the wire";
}

TEST_F(HashTableTest, ReadBucketRejectsOutOfRangeBucket) {
  std::vector<SlotView> bucket{SlotView{}};
  EXPECT_FALSE(table_.ReadBucket(table_.num_buckets(), &bucket))
      << "an out-of-range bucket must fail instead of aliasing the last bucket";
  EXPECT_TRUE(bucket.empty());
  EXPECT_TRUE(table_.ReadBucket(table_.num_buckets() - 1, &bucket));
  EXPECT_EQ(bucket.size(), static_cast<size_t>(table_.slots_per_bucket()));
}

TEST_F(HashTableTest, FaultFailedReadsDecodeAsEmptySlots) {
  // Bucket and sample READs land directly in the caller's SlotViews, so a
  // fault-failed READ must zero them rather than leave the previous decode.
  const uint64_t desired = PackAtomic(0x42, 4, 0xC0FFEE);
  ASSERT_TRUE(table_.CasAtomic(table_.BucketSlotAddr(3, 2), 0, desired));
  std::vector<SlotView> bucket;
  ASSERT_TRUE(table_.ReadBucket(3, &bucket));
  ASSERT_EQ(bucket[2].atomic_word, desired);
  const uint64_t bucket_start = uint64_t{3} * table_.slots_per_bucket();
  std::vector<SlotView> sample;
  ASSERT_TRUE(table_.ReadSlots(bucket_start, 5, &sample));
  ASSERT_EQ(sample[2].atomic_word, desired);

  rdma::FaultPlan plan;
  plan.verb_timeout_prob = 1.0;
  pool_.node().fault().Configure(plan);
  EXPECT_EQ(table_.PostReadBucket(3, &bucket), 0u) << "a failed post has no wr";
  EXPECT_TRUE(table_.ReadSlots(bucket_start, 5, &sample));
  EXPECT_FALSE(verbs_.ok());
  ASSERT_EQ(bucket.size(), static_cast<size_t>(table_.slots_per_bucket()));
  for (const SlotView& slot : bucket) {
    EXPECT_TRUE(slot.IsEmpty());
    EXPECT_EQ(slot.hash, 0u);
  }
  ASSERT_EQ(sample.size(), 5u);
  for (const SlotView& slot : sample) {
    EXPECT_TRUE(slot.IsEmpty());
  }
}

TEST_F(HashTableTest, SamplingUsesSingleRead) {
  std::vector<SlotView> sample;
  const uint64_t reads_before = ctx_.reads;
  table_.ReadSlots(0, 5, &sample);
  EXPECT_EQ(ctx_.reads, reads_before + 1) << "sampling must cost exactly one READ";
}

TEST_F(HashTableTest, ExpertBmapSharesInsertTsField) {
  const uint64_t slot_addr = table_.BucketSlotAddr(9, 1);
  table_.WriteExpertBmapAsync(slot_addr, 0b101);
  const SlotView slot = table_.ReadSlot(slot_addr);
  EXPECT_EQ(slot.expert_bmap(), 0b101u);
  EXPECT_EQ(slot.insert_ts, 0b101u) << "bmap is stored in insert_ts (paper Fig. 9)";
}

// Layout contract behind WriteExpertBmapAsync targeting kInsertTsOff: the
// aliasing is INTENTIONAL (paper Fig. 9 — a history entry has no insert_ts,
// so the word is reused for the expert bitmap) and is safe for the contended
// engine because of two invariants pinned here: (1) the bmap is written only
// after the slot's atomic word was CASed to the history tag, so no live
// object's insert_ts can be hit, and (2) re-claiming the slot for an object
// runs WriteAllMetadata, whose combined WRITE covers kInsertTsOff and
// overwrites the stale bmap before the slot is ever read as an object.
TEST_F(HashTableTest, HistoryBmapAliasingSurvivesSlotLifecycle) {
  const uint64_t slot_addr = table_.BucketSlotAddr(11, 3);

  // Live object with real metadata.
  ASSERT_TRUE(table_.CasAtomic(slot_addr, 0, PackAtomic(0x21, 2, 0x1000)));
  table_.WriteAllMetadata(slot_addr, /*hash=*/777, /*insert_ts=*/41, /*last_ts=*/42,
                          /*freq=*/3);

  // Eviction converts it to a history entry, then writes the bmap. Only the
  // insert_ts word may change; hash/last_ts/freq survive for regret checks.
  const uint64_t history_word = PackAtomic(0x21, kHistorySizeTag, /*hist_id=*/12345);
  ASSERT_TRUE(table_.CasAtomic(slot_addr, PackAtomic(0x21, 2, 0x1000), history_word));
  table_.WriteExpertBmapAsync(slot_addr, 0b11);
  SlotView slot = table_.ReadSlot(slot_addr);
  EXPECT_TRUE(slot.IsHistory());
  EXPECT_EQ(slot.expert_bmap(), 0b11u);
  EXPECT_EQ(slot.hash, 777u) << "bmap write must touch only the insert_ts word";
  EXPECT_EQ(slot.last_ts, 42u);
  EXPECT_EQ(slot.freq, 3u);

  // Re-claiming the slot for a new object re-initializes all metadata: the
  // stale bmap cannot leak into the new object's insert_ts.
  ASSERT_TRUE(table_.CasAtomic(slot_addr, history_word, PackAtomic(0x33, 1, 0x2000)));
  table_.WriteAllMetadata(slot_addr, /*hash=*/888, /*insert_ts=*/100, /*last_ts=*/100,
                          /*freq=*/1);
  slot = table_.ReadSlot(slot_addr);
  EXPECT_TRUE(slot.IsObject());
  EXPECT_EQ(slot.insert_ts, 100u) << "reinsert must overwrite the aliased bmap";
}

TEST_F(HashTableTest, ConcurrentCasOnSameSlotHasOneWinner) {
  const uint64_t slot_addr = table_.BucketSlotAddr(7, 7);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, slot_addr, &winners, t] {
      rdma::ClientContext ctx(static_cast<uint32_t>(t) + 1);
      rdma::Verbs verbs(&pool_.node(), &ctx);
      HashTable table(&pool_, &verbs);
      if (table.CasAtomic(slot_addr, 0, PackAtomic(1, 1, static_cast<uint64_t>(t) + 1))) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(winners.load(), 1);
}

}  // namespace
}  // namespace ditto::ht
