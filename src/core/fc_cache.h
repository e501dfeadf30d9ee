// Frequency-counter cache (paper §4.2.2): a client-side write-combining
// buffer that absorbs increments to the remote `freq` counters and flushes
// them as one RDMA_FAA when either (a) an entry's buffered delta reaches the
// threshold t, or (b) the cache is at capacity, in which case the entry with
// the earliest insert time is flushed.
//
// Layout. RecordAccess runs on every Get hit, so the buffer is two flat
// arrays instead of node-based containers:
//   - index_: an open-addressed table of Entry cells keyed by slot address
//     (linear probing, load factor <= 1/2, backward-shift deletion, so there
//     are no tombstones). Power-of-two sized.
//   - fifo_: a ring of slot addresses in insertion order (power-of-two sized).
// Both double when full and never shrink, so steady state allocates nothing.
//
// Size. With max_age > 0 the age flush drains the FIFO front on every
// access, so live entries are normally the at most max_age most recent
// inserts (insert times are counted in inserts, not accesses). The bound is
// not strict: see the stale-record rule below. With max_age == 0 only the
// byte capacity bounds the live entries.
//
// Stale-record rule. A threshold flush erases its entry but leaves the
// entry's FIFO record in place. A stale record is dropped when it reaches
// the front and its address is absent. If the address was inserted again
// meanwhile, the stale record names the new entry: the capacity flush
// evicts that entry early, and the age flush stops at it until the new
// entry itself ages, which can hold older entries past max_age. This is the
// buffer's defined behaviour; the flat layout reproduces it exactly.
#ifndef DITTO_CORE_FC_CACHE_H_
#define DITTO_CORE_FC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hashtable/hash_table.h"

namespace ditto::core {

class FcCache {
 public:
  // enabled=false degrades to one async FAA per access (the ablation mode).
  // max_age_accesses limits how long a buffered delta lags behind the remote
  // counter (the paper tracks entry insert times for this purpose): the entry
  // at the FIFO front is flushed once that many inserts followed it, subject
  // to the stale-record rule above. 0 disables age-based flushing.
  FcCache(ht::HashTable* table, int threshold, size_t capacity_bytes, bool enabled,
          uint64_t max_age_accesses = 512);
  virtual ~FcCache() = default;

  FcCache(const FcCache&) = delete;
  FcCache& operator=(const FcCache&) = delete;

  // Records one access to the object indexed by slot_addr. object_id_bytes
  // sizes the entry (the entry stores the object id, paper Figure text).
  void RecordAccess(uint64_t slot_addr, size_t object_id_bytes);

  // Flushes every buffered delta in FIFO (insertion) order (used at the end
  // of runs and by tests).
  void FlushAll();

  // The delta buffered for slot_addr but not yet applied remotely. Eviction
  // priority evaluation adds this to the remote freq so the client's own
  // buffered accesses are not invisible to its LFU-family experts.
  uint64_t PendingDelta(uint64_t slot_addr) const;

  size_t entry_count() const { return count_; }
  size_t bytes_used() const { return bytes_used_; }
  uint64_t flushes() const { return flushes_; }

 protected:
  // The cache's only remote effect: one async FAA of `delta` on the freq word
  // of slot_addr. Virtual so a test can record the flush stream in order.
  virtual void PostFaa(uint64_t slot_addr, uint64_t delta) {
    table_->AddFreqAsync(slot_addr, delta);
  }

 private:
  // One index cell; addr == kFree marks an unused cell. Slot addresses are
  // 8-aligned arena offsets, so kFree never names a slot.
  struct Entry {
    uint64_t addr;
    uint64_t delta;
    uint64_t insert_seq;
    uint64_t bytes;
  };
  static constexpr uint64_t kFree = ~uint64_t{0};

  // Index of the cell holding addr, or of the free cell that ends its probe.
  size_t Probe(uint64_t addr) const;
  // The cell addr's probe starts at.
  size_t Home(uint64_t addr) const;

  // Flushes slot_addr's entry if it is live; returns whether it was.
  bool FlushEntry(uint64_t slot_addr);
  // Posts the delta of the live entry in `cell` and removes the entry.
  void FlushAt(size_t cell);
  void EraseAt(size_t cell);
  void EvictOldest();
  void FlushAged();
  void FifoPush(uint64_t addr);
  uint64_t FifoFront() const { return fifo_[fifo_head_]; }
  void FifoPop() {
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    fifo_size_--;
  }
  void GrowIndex();
  void GrowFifo();

  ht::HashTable* table_;
  int threshold_;
  size_t capacity_bytes_;
  bool enabled_;
  uint64_t max_age_accesses_;

  std::vector<Entry> index_;   // open-addressed, keyed by slot address
  size_t index_mask_ = 0;      // index_.size() - 1
  int index_shift_ = 64;       // 64 - log2(index_.size())
  size_t count_ = 0;           // live entries
  std::vector<uint64_t> fifo_;  // ring of insertion records (may hold stale addrs)
  size_t fifo_head_ = 0;
  size_t fifo_size_ = 0;
  size_t bytes_used_ = 0;
  uint64_t seq_ = 0;
  uint64_t flushes_ = 0;
};

// ditto-lint: hot-path-begin(fc-cache)
// The lookups under every Get hit (RecordAccess) and every sampled eviction
// candidate (PendingDelta). Nothing here may allocate.
inline size_t FcCache::Home(uint64_t addr) const {
  // Fibonacci hashing: slot addresses form an arithmetic progression, which
  // the multiply spreads over the top bits.
  return static_cast<size_t>((addr * 0x9e3779b97f4a7c15ULL) >> index_shift_);
}

inline size_t FcCache::Probe(uint64_t addr) const {
  size_t i = Home(addr);
  while (index_[i].addr != addr && index_[i].addr != kFree) {
    i = (i + 1) & index_mask_;
  }
  return i;
}

inline uint64_t FcCache::PendingDelta(uint64_t slot_addr) const {
  const Entry& cell = index_[Probe(slot_addr)];
  return cell.addr == slot_addr ? cell.delta : 0;
}
// ditto-lint: hot-path-end(fc-cache)

}  // namespace ditto::core

#endif  // DITTO_CORE_FC_CACHE_H_
