// Time sources for the simulated disaggregated-memory substrate.
//
// LogicalClock: the tick domain of cache metadata (insert_ts / last_ts,
// expiry words), one per memory pool, ticked by every client of the pool.
// Deterministic across runs while one host thread at a time ticks it.
//
// VirtualClock: per-client accumulated busy time in nanoseconds. One-sided
// verbs, lock backoffs and miss penalties charge latency here; experiment
// elapsed time is derived from these accounts plus the NIC / MN-CPU serial
// components (see rdma::NicModel, rdma::CpuModel).
#ifndef DITTO_COMMON_CLOCK_H_
#define DITTO_COMMON_CLOCK_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/account_slot.h"

namespace ditto {

// Tick() returns a tick no other call returns, increasing within each host
// thread. Now() returns the high-water mark: at least every tick returned
// so far, so `Now() - ts` never underflows for a ts read from metadata.
//
// Exact and leased mode. Each host thread (its common/account_slot.h slot)
// keeps per-clock state. Until the clock sees real concurrency, every tick
// is exact: one RMW of the shared counter, high-water + 1. So one thread,
// or threads that take turns of at least two ticks each (hand-offs, in any
// order), get exactly the sequence 1, 2, 3, ... and Now() equals the last
// tick returned: replays on one host thread are bit-identical to a single
// shared counter. Real concurrency is a thread seeing other threads' ticks
// land both before its previous tick and again before this one (a turn's
// first tick sees them once). After that tick, until Reset(), the clock is
// leased: each thread takes kLeaseTicks ticks per RMW and hands them out
// from its own cache line, so two threads ticking one pool no longer move
// the counter's line between cores on every op. Threads past
// account_slot::kShards always tick exactly.
//
// Staleness bound (leased mode only): a leased tick lags Now() by at most
// kLeaseTicks - 1 plus the ticks other threads took since the lease was
// taken, about kLeaseTicks per concurrently ticking thread when the
// threads tick at similar rates. Metadata stamped from a lease therefore
// looks that much older to recency policies, and an expiry computed from
// Now() may fire that many ticks early; both are nondeterministic under
// concurrency with a single shared counter too.
//
// Reset() must run while no thread ticks the clock.
class LogicalClock {
 public:
  // Ticks per lease: one shared-line RMW per 64 ticks instead of per tick.
  static constexpr uint64_t kLeaseTicks = 64;

  LogicalClock() = default;
  LogicalClock(const LogicalClock&) = delete;
  LogicalClock& operator=(const LogicalClock&) = delete;

  // ditto-lint: hot-path-begin(clock-tick)
  uint64_t Tick() {
    const int slot = account_slot::Current();
    if (slot == account_slot::kShards) {
      return now_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    Lease& lease = leases_[static_cast<size_t>(slot)];
    if (lease.owner != account_slot::t_token) {
      lease = Lease{};  // a new owner of a recycled slot starts fresh
      lease.owner = account_slot::t_token;
    }
    if (lease.last < lease.end) {
      return ++lease.last;
    }
    if (!leased_.load(std::memory_order_relaxed)) {
      const uint64_t tick = now_.fetch_add(1, std::memory_order_relaxed) + 1;
      // Other threads ticked since this thread's previous tick.
      const bool sighted = lease.end != 0 && tick != lease.end + 1;
      if (sighted && lease.sighted) {
        leased_.store(true, std::memory_order_relaxed);  // this thread's next tick leases
      }
      lease.sighted = sighted;
      lease.last = lease.end = tick;
      return tick;
    }
    lease.last = now_.fetch_add(kLeaseTicks, std::memory_order_relaxed) + 1;
    lease.end = lease.last + kLeaseTicks - 1;
    return lease.last;
  }

  uint64_t Now() const { return now_.load(std::memory_order_relaxed); }
  // ditto-lint: hot-path-end(clock-tick)

  void Reset() {
    now_.store(0, std::memory_order_relaxed);
    leased_.store(false, std::memory_order_relaxed);
    leases_.fill(Lease{});
  }

 private:
  // One thread's state for this clock, written only by the slot's owner.
  struct alignas(kCacheLineBytes) Lease {
    uint64_t owner = 0;  // account_slot token of the owner; 0 = none yet
    uint64_t last = 0;   // last tick returned to the owner (0 = none)
    uint64_t end = 0;    // last tick of the current lease; == last when exact
    bool sighted = false;  // other threads ticked just before `last`
  };

  // The high-water mark: every tick handed out, exact or leased, is <= it.
  alignas(kCacheLineBytes) std::atomic<uint64_t> now_{0};
  // Set once real concurrency is seen; read only when a thread needs a new
  // tick from now_, whose line it shares.
  std::atomic<bool> leased_{false};
  std::array<Lease, account_slot::kShards> leases_{};
};

class VirtualClock {
 public:
  void AdvanceNs(uint64_t ns) { busy_ns_ += ns; }
  void AdvanceUs(double us) { busy_ns_ += static_cast<uint64_t>(us * 1000.0); }
  // Advances to an absolute busy-time point (no-op when already past it).
  // Used when retiring pipelined operations: the client blocks until the
  // op's completion timestamp unless later work already moved the clock.
  void AdvanceToNs(uint64_t ns) {
    if (ns > busy_ns_) {
      busy_ns_ = ns;
    }
  }
  uint64_t busy_ns() const { return busy_ns_; }
  double busy_us() const { return static_cast<double>(busy_ns_) / 1000.0; }
  void Reset() { busy_ns_ = 0; }

 private:
  uint64_t busy_ns_ = 0;
};

}  // namespace ditto

#endif  // DITTO_COMMON_CLOCK_H_
