// MemoryArena: the memory node's DRAM, modelled as an array of 8-byte atomic
// cells. One-sided verbs operate on the arena with real atomic instructions,
// so concurrency behaviour (CAS races, torn multi-word reads) matches what
// RDMA hardware provides: 8-byte atomicity, no cross-cell atomicity.
//
// Backing memory: every simulated verb is a host-memory copy out of the
// arena, and a served or replayed working set spans tens to hundreds of MiB,
// so on 4 KiB pages each bucket or object READ tends to miss the host TLB.
// An arena of at least kHugePageBytes (2 MiB) is therefore allocated
// 2 MiB-aligned and, on Linux, advised MADV_HUGEPAGE, so that where the
// host's transparent huge pages are enabled (or in `madvise` mode) it is
// backed by 2 MiB pages. A smaller arena keeps a plain heap allocation.
// Either way the constructor writes every cell once (zeroing it), which
// faults in the whole arena at construction: no page fault lands inside a
// measured region later.
#ifndef DITTO_RDMA_ARENA_H_
#define DITTO_RDMA_ARENA_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

namespace ditto::rdma {

class MemoryArena {
 public:
  // Arenas of at least this size are 2 MiB-aligned and huge-page advised.
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  explicit MemoryArena(size_t size_bytes);

  size_t size() const { return size_; }
  // First backing cell; exposed so tests can check the huge-page alignment.
  const void* base() const { return cells_.get(); }

  // Copies len bytes from arena offset addr into dst. Word-atomic: each
  // 8-byte cell is read with a single relaxed load; the full range is not
  // atomic (as with RDMA_READ).
  void Read(uint64_t addr, void* dst, size_t len) const;

  // Host-cache prefetch hint for an upcoming Read of [addr, addr+len):
  // pulls the backing cells toward the cache one line at a time. Purely a
  // performance hint — no loads are observed, no memory-model or accounting
  // side effects (this is not a verb).
  void PrefetchRead(uint64_t addr, size_t len) const {
#if defined(__GNUC__) || defined(__clang__)
    const uint64_t end = addr + len <= size_ ? addr + len : size_;
    for (uint64_t a = addr & ~uint64_t{7}; a < end; a += 64) {
      __builtin_prefetch(&cells_[a / 8], /*rw=*/0, /*locality=*/1);
    }
#else
    (void)addr;
    (void)len;
#endif
  }

  // Copies len bytes from src into the arena. Word-atomic per cell.
  void Write(uint64_t addr, const void* src, size_t len);

  // 8-byte compare-and-swap at an 8-byte-aligned address. Returns the value
  // observed before the operation (equal to expected iff it succeeded).
  uint64_t CompareSwap(uint64_t addr, uint64_t expected, uint64_t desired);

  // 8-byte fetch-and-add at an 8-byte-aligned address. Returns the old value.
  uint64_t FetchAdd(uint64_t addr, uint64_t delta);

  // Direct 8-byte read/write helpers (single cell, atomic).
  uint64_t ReadU64(uint64_t addr) const;
  void WriteU64(uint64_t addr, uint64_t value);

 private:
  std::atomic<uint64_t>* CellFor(uint64_t addr);
  const std::atomic<uint64_t>* CellFor(uint64_t addr) const;

  struct FreeCells {
    void operator()(std::atomic<uint64_t>* cells) const;
  };

  size_t size_;
  std::unique_ptr<std::atomic<uint64_t>[], FreeCells> cells_;
};

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_ARENA_H_
