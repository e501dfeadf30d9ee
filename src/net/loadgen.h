// net::RunLoadgen: an epoll-driven RESP load generator that replays a
// workload::Trace against a running front end over real sockets.
//
// Connection c replays the strided sub-stream c, c+C, c+2C, ... of the
// trace (kShared replay's client split), keeping up to `depth`
// commands in flight per connection. Trace ops map onto the protocol the
// server speaks: kGet/kMultiGet -> GET (a nil reply re-inserts the key with
// SET when set_on_miss, mirroring sim::RunTrace's miss policy),
// kUpdate/kInsert -> SET, kDelete -> DEL, kExpire -> EXPIRE. Values are 'v'
// bytes sized by the same deterministic per-key rule as the replay engines
// (RunOptions::ValueBytesFor), so a served replay is comparable —
// with one connection at depth 1, bit-identical — to the in-process run of
// the same trace.
//
// The result carries wall-clock QPS and nearest-rank latency percentiles
// measured from command enqueue to reply, plus the verb/hit counts observed
// on the wire (including -LOADSHED sheds, counted separately from misses).
#ifndef DITTO_NET_LOADGEN_H_
#define DITTO_NET_LOADGEN_H_

#include <cstdint>
#include <string>

#include "workloads/trace.h"

namespace ditto::net {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 1;
  int depth = 1;  // pipelined commands in flight per connection
  size_t value_bytes = 232;
  size_t value_bytes_max = 0;  // > value_bytes: per-key deterministic sizes
  bool set_on_miss = true;
  uint64_t expire_ttl_ticks = 64;
  // Abort when the server makes no progress for this long (dead peer guard).
  int idle_timeout_ms = 10000;
};

struct LoadgenResult {
  bool ok = false;
  std::string error;
  uint64_t ops = 0;     // trace requests completed (miss re-inserts excluded)
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t sets = 0;    // trace SETs + miss re-inserts
  uint64_t deletes = 0;
  uint64_t expires = 0;
  uint64_t shed = 0;    // commands answered -LOADSHED
  uint64_t errors = 0;  // other error replies / protocol surprises
  double wall_s = 0.0;
  double qps = 0.0;     // ops / wall_s
  double p50_us = 0.0;  // nearest-rank over per-command wall latency
  double p99_us = 0.0;

  double hit_rate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

LoadgenResult RunLoadgen(const workload::Trace& trace, const LoadgenOptions& options);

}  // namespace ditto::net

#endif  // DITTO_NET_LOADGEN_H_
