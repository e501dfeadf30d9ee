#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/resp.h"

namespace perfbench {

namespace net = ditto::net;

namespace {

constexpr std::string_view kGetHead = "*2\r\n$3\r\nGET\r\n$17\r\n";
constexpr std::string_view kSetHead = "*3\r\n$3\r\nSET\r\n$17\r\n";
constexpr int kConns = 4;
constexpr size_t kDepth = 32;  // closed-loop commands in flight per connection
constexpr size_t kValueBytes = 232;
constexpr size_t kKeyBytes = 17;     // workload::FormatKey: "k" + 16 hex digits
constexpr size_t kValueHeader = 28;  // 16 hex key digits ':' 10 version digits ':'
constexpr size_t kRecvChunk = 64 << 10;
// A command that failed counts as slower than any limit.
constexpr uint64_t kFailedLatencyNs = uint64_t{3600} * 1000000000;
constexpr int64_t kDrainNs = int64_t{5} * 1000000000;
// Open-loop latency samples are grouped into windows of this many ns of
// due time.
constexpr int64_t kWindowNs = 100000000;

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

Generator::Generator(const workload::Trace* trace, uint64_t num_keys, uint16_t port)
    : trace_(trace), num_keys_(num_keys), port_(port), versions_(num_keys, 0) {
  get_cmd_bytes_ = kGetHead.size() + kKeyBytes + 2;
  get_cmds_.resize(num_keys * get_cmd_bytes_);
  for (uint64_t k = 0; k < num_keys; ++k) {
    workload::KeyBuf buf;
    const std::string_view key = workload::FormatKey(k, &buf);
    char* dst = &get_cmds_[k * get_cmd_bytes_];
    std::memcpy(dst, kGetHead.data(), kGetHead.size());
    std::memcpy(dst + kGetHead.size(), key.data(), kKeyBytes);
    std::memcpy(dst + kGetHead.size() + kKeyBytes, "\r\n", 2);
  }
  set_value_len_ = "\r\n$" + std::to_string(kValueBytes) + "\r\n";
  for (int i = 0; i < 26; ++i) {
    fillers_.emplace_back(kValueBytes - kValueHeader, static_cast<char>('a' + i));
  }
}

Generator::~Generator() {
  for (Conn& c : conns_) {
    ::close(c.fd);
  }
}

std::string_view Generator::KeyString(uint32_t key) const {
  return std::string_view(&get_cmds_[key * get_cmd_bytes_ + kGetHead.size()], kKeyBytes);
}

bool Generator::ValidValue(uint32_t key, std::string_view value) const {
  if (value.size() != kValueBytes || value.substr(0, 16) != KeyString(key).substr(1) ||
      value[16] != ':' || value[27] != ':') {
    return false;
  }
  uint64_t version = 0;
  for (size_t i = 17; i < 27; ++i) {
    if (value[i] < '0' || value[i] > '9') {
      return false;
    }
    version = version * 10 + static_cast<uint64_t>(value[i] - '0');
  }
  return version >= 1 && version <= versions_[key] &&
         value.substr(kValueHeader) == fillers_[key % 26];
}

std::vector<int> Generator::placement() const {
  std::vector<int> per_reactor(kReactors, 0);
  for (const Conn& c : conns_) {
    if (c.reactor >= 0 && c.reactor < kReactors) {
      per_reactor[c.reactor]++;
    }
  }
  return per_reactor;
}

bool Generator::NextOp(Source source, uint32_t* key, Kind* kind) {
  switch (source) {
    case Source::kPreload:
      if (preload_next_ >= num_keys_) {
        return false;
      }
      *key = static_cast<uint32_t>(preload_next_++);
      *kind = Kind::kSet;
      return true;
    case Source::kTrace:
    case Source::kTraceAsSet: {
      const workload::Request& req = (*trace_)[cursor_];
      cursor_ = (cursor_ + 1) % trace_->size();
      *key = static_cast<uint32_t>(req.key);
      *kind = source == Source::kTrace && req.op == workload::Op::kGet ? Kind::kGet : Kind::kSet;
      return true;
    }
  }
  return false;
}

void Generator::Push(Conn* c, const Pending& p) {
  if (c->size == c->fifo.size()) {
    std::vector<Pending> grown(std::max<size_t>(64, c->fifo.size() * 2));
    for (size_t i = 0; i < c->size; ++i) {
      grown[i] = c->fifo[(c->head + i) % c->fifo.size()];
    }
    c->fifo = std::move(grown);
    c->head = 0;
  }
  c->fifo[(c->head + c->size) % c->fifo.size()] = p;
  c->size++;
}

Generator::Pending Generator::Pop(Conn* c) {
  const Pending p = c->fifo[c->head];
  c->head = (c->head + 1) % c->fifo.size();
  c->size--;
  return p;
}

void Generator::Issue(Conn* c, uint32_t key, Kind kind, int64_t t_ns, PhaseStats* st) {
  if (kind == Kind::kGet) {
    const char* cmd = &get_cmds_[key * get_cmd_bytes_];
    c->out.insert(c->out.end(), cmd, cmd + get_cmd_bytes_);
  } else {
    const std::string_view k = KeyString(key);
    uint32_t version = ++versions_[key];
    char header[kValueHeader];
    std::memcpy(header, k.data() + 1, 16);
    header[16] = ':';
    for (int i = 26; i >= 17; --i) {
      header[i] = static_cast<char>('0' + version % 10);
      version /= 10;
    }
    header[27] = ':';
    c->out.insert(c->out.end(), kSetHead.begin(), kSetHead.end());
    c->out.insert(c->out.end(), k.begin(), k.end());
    c->out.insert(c->out.end(), set_value_len_.begin(), set_value_len_.end());
    c->out.insert(c->out.end(), header, header + kValueHeader);
    const std::string& filler = fillers_[key % 26];
    c->out.insert(c->out.end(), filler.begin(), filler.end());
    c->out.push_back('\r');
    c->out.push_back('\n');
  }
  Push(c, Pending{key, t_ns, kind});
  st->tally.attempted++;
}

bool Generator::Flush(Conn* c, size_t index) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off, c->out.size() - c->out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      if (index == 0 && captured_.size() < capture_limit_) {
        const size_t take = std::min(static_cast<size_t>(n), capture_limit_ - captured_.size());
        captured_.insert(captured_.end(), c->out.data() + c->out_off,
                         c->out.data() + c->out_off + take);
        captured_sends_.push_back(static_cast<uint32_t>(take));
      }
      c->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    protocol_error_ = std::string("send: ") + std::strerror(errno);
    return false;
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

bool Generator::Receive(Conn* c, int64_t now, bool record, PhaseStats* st) {
  while (true) {
    char* dst = c->in.Reserve(kRecvChunk);
    const ssize_t n = ::recv(c->fd, dst, kRecvChunk, MSG_DONTWAIT);
    if (n > 0) {
      c->in.Commit(static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kRecvChunk) {
        break;
      }
      continue;
    }
    if (n == 0) {
      protocol_error_ = "server closed a connection";
      return false;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    protocol_error_ = std::string("recv: ") + std::strerror(errno);
    return false;
  }
  while (protocol_error_.empty()) {
    net::RespReply reply;
    std::string error;
    const net::ParseStatus status = net::ParseReply(&c->in, &reply, nullptr, &error);
    if (status == net::ParseStatus::kNeedMore) {
      break;
    }
    if (status == net::ParseStatus::kError) {
      protocol_error_ = "malformed reply: " + error;
      break;
    }
    if (c->size == 0) {
      protocol_error_ = "reply without a pending command";
      break;
    }
    Handle(Pop(c), reply, now, record, st);
  }
  return protocol_error_.empty();
}

void Generator::Handle(const Pending& p, const net::RespReply& reply, int64_t now, bool record,
                       PhaseStats* st) {
  using Type = net::RespReply::Type;
  bool failed = false;
  if (reply.type == Type::kError) {
    failed = true;
    if (StartsWith(reply.text, "LOADSHED")) {
      st->tally.shed++;
    } else if (StartsWith(reply.text, "OOM")) {
      st->tally.dropped++;
    } else if (StartsWith(reply.text, "UNAVAILABLE")) {
      st->tally.unavailable++;
    } else {
      st->tally.error_replies++;
    }
  }
  if (!StartsWith(reply.text, "LOADSHED") || reply.type != Type::kError) {
    executed_++;
  }
  const uint64_t latency = failed ? kFailedLatencyNs : static_cast<uint64_t>(now - p.t_ns);
  if (p.kind == Kind::kGet) {
    if (!failed) {
      gets_executed_++;
    }
    if (reply.type == Type::kBulk) {
      hits_seen_++;
      if (!ValidValue(p.key, reply.text)) {
        bad_values_++;
      }
      st->gets++;
      st->hits++;
    } else if (reply.type == Type::kNil) {
      st->gets++;
      st->misses++;
    } else if (!failed) {
      protocol_error_ = "unexpected GET reply";
    }
    if (record) {
      st->get.Add(latency, static_cast<uint32_t>((p.t_ns - phase_start_) / kWindowNs));
    }
  } else {
    if (!failed && !(reply.type == Type::kSimple && reply.text == "OK")) {
      protocol_error_ = "unexpected SET reply";
    }
    if (record) {
      st->set.Add(latency, static_cast<uint32_t>((p.t_ns - phase_start_) / kWindowNs));
    }
  }
  st->trace_ops++;
}

PhaseStats Generator::Run(Source source, bool open, double seconds, double rate) {
  PhaseStats st;
  const int64_t start = NowNs();
  phase_start_ = start;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const double interval_ns = open ? 1e9 / rate : 0.0;
  uint64_t issued = 0;
  bool exhausted = false;
  int64_t next_due = start;
  int64_t drain_start = 0;
  int64_t busy_ns = 0;
  std::vector<pollfd> fds(conns_.size());

  // The loop spins (zero-timeout ppoll) rather than sleeping, so an op is
  // sent within a loop turn of its due time and a reply is read as soon as
  // it lands; busy_ns counts only the turns that sent or received.
  while (protocol_error_.empty()) {
    const int64_t turn = NowNs();
    int64_t now = turn;
    const auto sourcing = [&] {
      return !exhausted && now < end;
    };
    const uint64_t attempted_before = st.tally.attempted;
    uint32_t key = 0;
    Kind kind = Kind::kGet;
    if (open) {
      while (sourcing() && next_due <= now) {
        if (!NextOp(source, &key, &kind)) {
          exhausted = true;
          break;
        }
        Issue(&conns_[issued % conns_.size()], key, kind, next_due, &st);
        st.late.Add(static_cast<uint64_t>(now - next_due),
                    static_cast<uint32_t>((next_due - start) / kWindowNs));
        ++issued;
        next_due = start + static_cast<int64_t>(static_cast<double>(issued) * interval_ns);
      }
    } else {
      // Lockstep batches: a connection whose batch is fully answered sends
      // the next kDepth commands in one write.
      for (Conn& c : conns_) {
        if (c.size > 0) {
          continue;
        }
        while (sourcing() && c.size < kDepth) {
          if (!NextOp(source, &key, &kind)) {
            exhausted = true;
            break;
          }
          Issue(&c, key, kind, now, &st);
          ++issued;
        }
      }
    }
    size_t inflight = 0;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (!Flush(&conns_[i], i)) {
        break;
      }
      inflight += conns_[i].size;
    }
    if (!protocol_error_.empty()) {
      break;
    }
    if (!sourcing()) {
      if (inflight == 0) {
        break;
      }
      if (drain_start == 0) {
        drain_start = now;
      } else if (now - drain_start > kDrainNs) {
        st.tally.never_completed += inflight;
        break;
      }
    }

    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const timespec zero{0, 0};
    const int ready = ::ppoll(fds.data(), fds.size(), &zero, nullptr);
    if (ready < 0 && errno != EINTR) {
      protocol_error_ = std::string("ppoll: ") + std::strerror(errno);
      break;
    }
    now = NowNs();
    for (size_t i = 0; ready > 0 && i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
          !Receive(&conns_[i], now, /*record=*/true, &st)) {
        break;
      }
    }
    if (ready > 0 || st.tally.attempted != attempted_before) {
      busy_ns += NowNs() - turn;
    }
  }
  const int64_t wall_ns = NowNs() - start;
  st.wall_s = static_cast<double>(wall_ns) / 1e9;
  st.busy_frac = wall_ns > 0 ? static_cast<double>(busy_ns) / static_cast<double>(wall_ns) : 0.0;
  return st;
}

PhaseStats Generator::ClosedLoop(Source source, double seconds) {
  return Run(source, /*open=*/false, seconds, 0.0);
}

PhaseStats Generator::OpenLoop(Source source, double seconds, double rate) {
  return Run(source, /*open=*/true, seconds, rate);
}

bool Generator::Connect(const std::function<std::vector<uint64_t>()>& reactor_calls,
                        std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int per_reactor = kConns / kReactors;
  std::vector<int> owned(kReactors, 0);
  std::vector<int> spares;
  for (int attempt = 0; attempt < 64 && static_cast<int>(conns_.size()) < kConns;
       ++attempt) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      if (c.fd >= 0) {
        ::close(c.fd);
      }
      break;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);

    // Probe: one GET; the reactor whose cache client counted it owns the
    // connection.
    const std::vector<uint64_t> before = reactor_calls();
    PhaseStats probe;
    Issue(&c, static_cast<uint32_t>(attempt % num_keys_), Kind::kGet, NowNs(), &probe);
    const int64_t deadline = NowNs() + kDrainNs;
    while (c.size > 0 && protocol_error_.empty() && NowNs() < deadline) {
      Flush(&c, SIZE_MAX);
      pollfd pfd{c.fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0) {
        Receive(&c, NowNs(), false, &probe);
      }
    }
    const std::vector<uint64_t> after = reactor_calls();
    int reactor = -1;
    for (size_t r = 0; r < after.size(); ++r) {
      if (after[r] != before[r]) {
        reactor = static_cast<int>(r);
      }
    }
    if (c.size > 0 || reactor < 0 || !protocol_error_.empty()) {
      *error = "placement probe failed: " + protocol_error_;
      ::close(c.fd);
      break;
    }
    if (owned[reactor] < per_reactor) {
      owned[reactor]++;
      c.reactor = reactor;
      conns_.push_back(std::move(c));
    } else {
      // Keep it open until placement is done so the next connect gets a
      // fresh 4-tuple, hashed anew by SO_REUSEPORT.
      spares.push_back(c.fd);
    }
  }
  for (int fd : spares) {
    ::close(fd);
  }
  if (static_cast<int>(conns_.size()) < kConns) {
    if (error->empty()) {
      *error = "could not place " + std::to_string(kConns) +
               " connections evenly over the reactors";
    }
    return false;
  }
  return true;
}

}  // namespace perfbench
