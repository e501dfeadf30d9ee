// net::Connection: the per-socket protocol state machine of the front end.
//
// A connection owns its fd, an input ring the reactor reads socket bytes
// into, an output ring replies are staged in, and a RespParser. Each
// readable event runs one *batch*:
//   1. Parse every complete pipelined command out of the input ring.
//   2. Charge the server's in-flight budget once for the whole batch
//      (AcquireOps with the batch's total cache ops, one ReleaseOps after
//      it ran). Only when that reservation is refused does the batch fall
//      back to one AcquireOps per command: commands past the watermark are
//      marked shed and answered `-LOADSHED` in their slot.
//   3. Execute in command order. Each maximal *run* of consecutive GET and
//      SET commands (every SET form, EX/PX/TTL included) executes as one
//      CacheClient::ExecuteBatch of kGet/kSet ops; a GET/SET arity or
//      syntax error, or a shed GET/SET, is answered in its slot without an
//      op. ExecuteBatch runs ops in order, so verbs, virtual time and
//      per-key program order (a GET after a SET of the same key sees it)
//      are those of one call per command. Any other command ends the run
//      and executes on its own.
//   4. Format replies into the output ring in command order and report the
//      batch's command/op/shed counts once (OnCommands).
// Argument views alias the input ring for the whole batch (see
// ring_buffer.h), so the hot path allocates nothing at steady state.
//
// Command -> CacheOp mapping (RESP2 subset):
//   GET k            -> kGet        -> $value | $-1
//   SET k v [EX|PX|TTL t] -> kSet(ttl=t ticks) -> +OK | -OOM (kDropped)
//
// Any command whose cache op comes back kUnavailable (a cluster deployment's
// backing node crashed, or the op exhausted its retries) answers
// `-UNAVAILABLE <detail>` instead of its normal reply: a silent nil would
// read as "key absent" and poison negative caches. Multi-key commands
// (DEL/MGET) answer -UNAVAILABLE when ANY of their keys was unrouteable.
//   DEL k [k...]     -> kDelete xN  -> :deleted_count
//   EXPIRE k t       -> kExpire     -> :1 | :0
//   MGET k [k...]    -> kMultiGet run (doorbell-fused by the client) -> array
//   TTL k            -> kGet probe  -> :-1 (cached; ticks not readable) | :-2
//   PING [msg]       -> no op       -> +PONG | $msg
//   INFO             -> no op       -> $<stats text>
//   QUIT             -> no op       -> +OK, then close after flush
//
// Backpressure: when the output ring exceeds the per-connection pending-byte
// cap the reactor stops polling the connection for input until the peer
// drains below half the cap; a protocol error is answered with a RESP error
// and the connection closes after the flush.
#ifndef DITTO_NET_CONNECTION_H_
#define DITTO_NET_CONNECTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/resp.h"
#include "net/ring_buffer.h"
#include "sim/cache_op.h"
#include "sim/client_iface.h"

namespace ditto::net {

// Services a Connection needs from its reactor/server. Implemented by the
// server's reactor; a test can implement it directly to drive a Connection
// without sockets.
class ConnectionHost {
 public:
  virtual ~ConnectionHost() = default;
  // Reserves `n` cache-op slots from the global in-flight budget: once per
  // read batch for all of its ops, or once per command when that is refused.
  // A false return sheds what was asked for.
  virtual bool AcquireOps(size_t n) = 0;
  virtual void ReleaseOps(size_t n) = 0;
  // The cache client this connection's ops execute on (one per reactor).
  virtual sim::CacheClient* client() = 0;
  // Fills `out` with the INFO payload.
  virtual void FormatInfo(std::string* out) = 0;
  // Command/op/shed accounting, once per read batch (the server keeps it
  // per reactor and sums it in Server::stats()).
  virtual void OnCommands(uint64_t commands, uint64_t ops, uint64_t shed_ops) = 0;
  virtual const RespLimits& limits() = 0;
};

class Connection {
 public:
  Connection(int fd, ConnectionHost* host) : fd_(fd), host_(host), parser_(host->limits()) {}

  int fd() const { return fd_; }
  RingBuffer& in() { return in_; }
  RingBuffer& out() { return out_; }

  // Parses and executes every complete command currently in the input ring,
  // staging replies in the output ring. Returns false when the connection
  // must close (QUIT, protocol error) once the output flushes.
  bool ProcessInput();

  // True once the peer asked to QUIT or a protocol error was answered: the
  // reactor flushes the output ring and then closes.
  bool closing() const { return closing_; }

 private:
  // What a command is, decided once at parse time.
  enum class Verb : uint8_t { kGet, kSet, kOther };

  // One parsed-but-not-yet-executed command of the current batch. Argument
  // views alias the input ring and stay valid for the whole batch.
  struct PendingCmd {
    size_t args_begin = 0;  // range into batch_args_
    size_t args_end = 0;
    uint32_t ops = 0;  // cache ops charged against the in-flight budget
    Verb verb = Verb::kOther;
    bool shed = false;
    std::string_view error;  // GET/SET: error reply (no op) when non-empty
  };

  // Charges the in-flight budget for the parsed batch, marking shed commands
  // when the batch reservation is refused. Returns the ops acquired and adds
  // the shed ones to *shed_ops.
  uint64_t ReserveBatch(uint64_t batch_ops, uint64_t* shed_ops);
  // Executes batch_[begin, end), a run of GET/SET commands, as one
  // ExecuteBatch and formats the run's replies in command order.
  void ExecuteRun(size_t begin, size_t end);
  // Any command other than GET/SET. False = close after the flush (QUIT).
  bool ExecuteCommand(const std::string_view* args, size_t argc);
  void ExecuteOps();
  // Appends `-ERR wrong number of arguments for '<verb>' command`.
  void WrongArity(std::string_view verb);
  // True when any result of the last ExecuteOps came back kUnavailable; the
  // caller answers `-UNAVAILABLE` for the whole command.
  bool AnyUnavailable() const;
  // Appends `-UNAVAILABLE '<verb>' aborted: ...`.
  void Unavailable(std::string_view verb);

  int fd_;
  ConnectionHost* host_;
  RespParser parser_;
  RingBuffer in_;
  RingBuffer out_;
  bool closing_ = false;

  // Batch scratch, reused across readable events (no steady-state allocs).
  RespCommand cmd_;
  std::vector<std::string_view> batch_args_;
  std::vector<PendingCmd> batch_;
  std::vector<sim::CacheOp> ops_;  // the current run's or command's ops
  std::vector<sim::CacheResult> results_;
  std::string info_;
  uint64_t executed_ops_ = 0;  // cache ops the current batch executed
};

}  // namespace ditto::net

#endif  // DITTO_NET_CONNECTION_H_
