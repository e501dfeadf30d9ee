// The benchmark's single-thread RESP load generator for the served
// workloads.
//
// Command bytes are pre-rendered: every key's GET command is built once, and
// a SET is the key's pre-rendered key string plus a value template with the
// version digits patched in, so the generator spends far less CPU per op
// than the server. Values encode (key, version): every hit is checked to
// name the requested key and a version the generator already sent for it.
//
// Two loop shapes, both on one thread spinning over every connection (a
// sleeping generator on a virtual machine adds wake-up delays of up to
// milliseconds to the schedule):
//   closed loop  each connection sends 32 commands in one write and
//                sends the next batch once all of them are answered; a
//                command is timed from its batch's send;
//   open loop    op i is due at start + i / rate regardless of replies and
//                is timed from when it was due, so a stall is charged to
//                every op it delays.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "measure.h"
#include "net/resp.h"
#include "net/ring_buffer.h"
#include "workloads/trace.h"

namespace perfbench {

namespace workload = ditto::workload;

// Reactors of the server the generator drives; Connect places the
// generator's connections evenly over them.
inline constexpr int kReactors = 2;

// Where a phase's ops come from.
enum class Source {
  kPreload,     // SET every key once, in key order
  kTrace,       // the trace, cycled: kGet -> GET, kUpdate/kInsert -> SET
  kTraceAsSet,  // the trace's keys, each as a SET
};

// Latency samples with the window (100 ms of due time) each op fell in.
struct LatencySamples {
  std::vector<uint64_t> ns;
  std::vector<uint32_t> window;
  void Add(uint64_t latency_ns, uint32_t w) {
    ns.push_back(latency_ns);
    window.push_back(w);
  }
};

struct PhaseStats {
  uint64_t trace_ops = 0;  // completed ops drawn from the source
  uint64_t gets = 0;       // ... of which GETs, and their outcomes
  uint64_t hits = 0;
  uint64_t misses = 0;
  LatencySamples get;             // GET latency from due time or batch send
  LatencySamples set;             // SET latency from due time or batch send
  LatencySamples late;            // open loop: send time minus due time
  OpTally tally;                  // every cache command of the phase
  double wall_s = 0.0;
  double busy_frac = 0.0;         // share of wall time spent sending/receiving
};

class Generator {
 public:
  Generator(const workload::Trace* trace, uint64_t num_keys, uint16_t port);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Connects until every reactor owns an equal share of the connections. A GET
  // probe on each new connection shows which reactor serves it:
  // `reactor_calls` returns each reactor's cache-call count.
  bool Connect(const std::function<std::vector<uint64_t>()>& reactor_calls, std::string* error);

  // Closed loop for `seconds`; a kPreload source ends by itself.
  PhaseStats ClosedLoop(Source source, double seconds);
  // Open loop at `rate` ops/s for `seconds`.
  PhaseStats OpenLoop(Source source, double seconds, double rate);

  // Captures the bytes sent on connection 0 (with send boundaries) during
  // the next phases, up to `max_bytes`.
  void Capture(size_t max_bytes) { capture_limit_ = max_bytes; }
  const std::vector<char>& captured() const { return captured_; }
  const std::vector<uint32_t>& captured_sends() const { return captured_sends_; }

  // Connections per reactor (after Connect).
  std::vector<int> placement() const;

  // Lifetime totals over every phase (and the placement probes).
  uint64_t executed() const { return executed_; }  // replies other than -LOADSHED
  uint64_t hits_seen() const { return hits_seen_; }
  uint64_t gets_executed() const { return gets_executed_; }
  uint64_t bad_values() const { return bad_values_; }
  const std::string& protocol_error() const { return protocol_error_; }

 private:
  enum class Kind : uint8_t { kGet, kSet };
  struct Pending {
    uint32_t key = 0;
    int64_t t_ns = 0;  // due time (open loop) or issue time
    Kind kind = Kind::kGet;
  };
  struct Conn {
    int fd = -1;
    int reactor = -1;
    std::vector<char> out;
    size_t out_off = 0;
    ditto::net::RingBuffer in{1 << 16};
    std::vector<Pending> fifo;  // ring of in-flight commands
    size_t head = 0;
    size_t size = 0;
  };

  PhaseStats Run(Source source, bool open, double seconds, double rate);
  bool NextOp(Source source, uint32_t* key, Kind* kind);
  void Issue(Conn* c, uint32_t key, Kind kind, int64_t t_ns, PhaseStats* st);
  void Push(Conn* c, const Pending& p);
  Pending Pop(Conn* c);
  bool Flush(Conn* c, size_t index);
  bool Receive(Conn* c, int64_t now, bool record, PhaseStats* st);
  void Handle(const Pending& p, const ditto::net::RespReply& reply, int64_t now, bool record,
              PhaseStats* st);
  bool ValidValue(uint32_t key, std::string_view value) const;
  std::string_view KeyString(uint32_t key) const;

  const workload::Trace* trace_;
  uint64_t num_keys_;
  uint16_t port_;
  std::vector<char> get_cmds_;  // pre-rendered GET command per key
  size_t get_cmd_bytes_ = 0;
  std::string set_value_len_;   // "\r\n$<value_bytes>\r\n"
  std::vector<std::string> fillers_;
  std::vector<uint32_t> versions_;  // last version sent per key
  std::vector<Conn> conns_;
  int64_t phase_start_ = 0;
  size_t cursor_ = 0;           // next trace index
  uint64_t preload_next_ = 0;

  size_t capture_limit_ = 0;
  std::vector<char> captured_;
  std::vector<uint32_t> captured_sends_;

  uint64_t executed_ = 0;
  uint64_t hits_seen_ = 0;
  uint64_t gets_executed_ = 0;
  uint64_t bad_values_ = 0;
  std::string protocol_error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
