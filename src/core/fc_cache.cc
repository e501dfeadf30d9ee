#include "core/fc_cache.h"

#include <bit>
#include <cassert>

namespace ditto::core {
namespace {
// Fixed per-entry bookkeeping bytes: slot address + delta + insert time.
constexpr size_t kEntryOverheadBytes = 24;
// Starting size of both the index and the FIFO ring (a power of two).
constexpr size_t kInitialCells = 16;
static_assert(std::has_single_bit(kInitialCells));
}  // namespace

FcCache::FcCache(ht::HashTable* table, int threshold, size_t capacity_bytes, bool enabled,
                 uint64_t max_age_accesses)
    : table_(table),
      threshold_(threshold),
      capacity_bytes_(capacity_bytes),
      enabled_(enabled),
      max_age_accesses_(max_age_accesses),
      index_(kInitialCells, Entry{kFree, 0, 0, 0}),
      index_mask_(kInitialCells - 1),
      index_shift_(64 - std::countr_zero(kInitialCells)),
      fifo_(kInitialCells) {}

// ditto-lint: hot-path-begin(fc-cache)
// RecordAccess runs on every Get hit. Only the two Grow* paths allocate, and
// only while the buffer grows past its largest size so far.
void FcCache::RecordAccess(uint64_t slot_addr, size_t object_id_bytes) {
  if (!enabled_) {
    // Ablation passthrough: the FAA goes out per access without ever being
    // buffered, so it is not a flush — counting it skewed the flush metric
    // the benches compare against the enabled mode.
    PostFaa(slot_addr, 1);
    return;
  }
  size_t cell = Probe(slot_addr);
  if (index_[cell].addr == kFree) {
    if (2 * (count_ + 1) > index_.size()) {
      GrowIndex();
      cell = Probe(slot_addr);
    }
    const uint64_t bytes = object_id_bytes + kEntryOverheadBytes;
    index_[cell] = Entry{slot_addr, 0, seq_++, bytes};
    count_++;
    bytes_used_ += bytes;
    FifoPush(slot_addr);
  }
  if (++index_[cell].delta >= static_cast<uint64_t>(threshold_)) {
    FlushAt(cell);
  }
  // Capacity eviction runs on every access — a threshold-flush access used to
  // skip it, which could leave bytes_used_ above capacity_bytes_ until the
  // next sub-threshold access.
  while (bytes_used_ > capacity_bytes_ && count_ > 0) {
    EvictOldest();
  }
  FlushAged();
}

void FcCache::FlushAged() {
  if (max_age_accesses_ == 0) {
    return;
  }
  // Amortized O(1): drain stale FIFO heads whose entries have lagged behind
  // the remote counter for too long.
  while (fifo_size_ > 0) {
    const uint64_t addr = FifoFront();
    const size_t cell = Probe(addr);
    if (index_[cell].addr != addr) {
      FifoPop();  // stale FIFO record of an already-flushed entry
      continue;
    }
    if (seq_ - index_[cell].insert_seq < max_age_accesses_) {
      break;
    }
    FifoPop();
    FlushAt(cell);
  }
}

bool FcCache::FlushEntry(uint64_t slot_addr) {
  const size_t cell = Probe(slot_addr);
  if (index_[cell].addr != slot_addr) {
    return false;
  }
  FlushAt(cell);
  return true;
}

void FcCache::FlushAt(size_t cell) {
  const Entry& entry = index_[cell];
  if (entry.delta > 0) {
    PostFaa(entry.addr, entry.delta);
    flushes_++;
  }
  bytes_used_ -= entry.bytes;
  EraseAt(cell);
}

void FcCache::EraseAt(size_t cell) {
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole when the hole lies between its home cell and its current cell, so
  // every entry stays reachable from its home without tombstones.
  size_t hole = cell;
  for (size_t j = (hole + 1) & index_mask_; index_[j].addr != kFree; j = (j + 1) & index_mask_) {
    const size_t home = Home(index_[j].addr);
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].addr = kFree;
  count_--;
}

void FcCache::EvictOldest() {
  while (fifo_size_ > 0) {
    const uint64_t addr = FifoFront();
    FifoPop();
    if (FlushEntry(addr)) {
      return;
    }
  }
}

void FcCache::FifoPush(uint64_t addr) {
  if (fifo_size_ == fifo_.size()) {
    GrowFifo();
  }
  fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = addr;
  fifo_size_++;
}

void FcCache::GrowIndex() {
  // ditto-lint: allow(alloc): the index doubles only past its largest size so far
  std::vector<Entry> grown(index_.size() * 2, Entry{kFree, 0, 0, 0});
  grown.swap(index_);
  index_mask_ = index_.size() - 1;
  index_shift_--;
  for (const Entry& entry : grown) {
    if (entry.addr != kFree) {
      index_[Probe(entry.addr)] = entry;
    }
  }
}

void FcCache::GrowFifo() {
  // ditto-lint: allow(alloc): the ring doubles only past its largest size so far
  std::vector<uint64_t> grown(fifo_.size() * 2);
  for (size_t i = 0; i < fifo_size_; ++i) {
    grown[i] = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
  }
  fifo_.swap(grown);
  fifo_head_ = 0;
}
// ditto-lint: hot-path-end(fc-cache)

void FcCache::FlushAll() {
  // Every live entry still has its own insertion record in the FIFO (a record
  // leaves it only when the entry it names is flushed), so draining the FIFO
  // drains the index.
  while (fifo_size_ > 0) {
    const uint64_t addr = FifoFront();
    FifoPop();
    FlushEntry(addr);
  }
  assert(count_ == 0 && bytes_used_ == 0);
}

}  // namespace ditto::core
