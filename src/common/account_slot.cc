#include "common/account_slot.h"

#include <atomic>
#include <bit>

namespace ditto::account_slot {
namespace {

static_assert(kShards <= 32, "the slot mask is 32 bits");
constexpr uint32_t kAllTaken = kShards == 32 ? ~uint32_t{0} : (uint32_t{1} << kShards) - 1;

// Bit s set = slot s has a live owner.
std::atomic<uint32_t> g_taken{0};
std::atomic<uint64_t> g_next_token{1};

// Returns the thread's slot when the thread exits. The release pairs with
// the next claimer's acquire, so the new owner's first load+store of a shard
// sees every store the old owner made.
struct SlotRelease {
  int slot = kShards;
  ~SlotRelease() {
    if (slot < kShards) {
      g_taken.fetch_and(~(uint32_t{1} << slot), std::memory_order_release);
    }
    // A use from a later thread-exit destructor takes the overflow path.
    t_slot = kShards;
  }
};

}  // namespace

int Claim() {
  thread_local SlotRelease release;
  t_token = g_next_token.fetch_add(1, std::memory_order_relaxed);
  uint32_t taken = g_taken.load(std::memory_order_relaxed);
  int slot = kShards;
  while (taken != kAllTaken) {
    const int free = std::countr_one(taken);
    if (g_taken.compare_exchange_weak(taken, taken | (uint32_t{1} << free),
                                      std::memory_order_acquire, std::memory_order_relaxed)) {
      slot = free;
      break;
    }
  }
  release.slot = slot;
  t_slot = slot;
  return slot;
}

}  // namespace ditto::account_slot
