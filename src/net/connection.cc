#include "net/connection.h"

#include <charconv>

namespace ditto::net {

namespace {

// Case-insensitive ASCII compare against an UPPERCASE literal.
bool VerbIs(std::string_view verb, std::string_view upper) {
  if (verb.size() != upper.size()) {
    return false;
  }
  for (size_t i = 0; i < verb.size(); ++i) {
    char c = verb[i];
    if (c >= 'a' && c <= 'z') {
      c = static_cast<char>(c - 'a' + 'A');
    }
    if (c != upper[i]) {
      return false;
    }
  }
  return true;
}

bool ParseU64(std::string_view s, uint64_t* value) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

// Cache ops a command of `argc` arguments wants to execute — the unit the
// global in-flight watermark is charged in. Commands that execute no cache
// op (PING/INFO/QUIT/unknown) are never shed.
size_t OpsForCommand(std::string_view verb, size_t argc) {
  if (VerbIs(verb, "GET") || VerbIs(verb, "SET") || VerbIs(verb, "EXPIRE") ||
      VerbIs(verb, "TTL")) {
    return argc >= 2 ? 1 : 0;
  }
  if (VerbIs(verb, "DEL") || VerbIs(verb, "MGET")) {
    return argc >= 2 ? argc - 1 : 0;
  }
  return 0;
}

constexpr std::string_view kShedReply = "LOADSHED server over in-flight op watermark, retry";
constexpr std::string_view kNotInteger = "ERR value is not an integer or out of range";

}  // namespace

bool Connection::ProcessInput() {
  if (closing_) {
    return false;
  }
  // Pass 1: parse every complete pipelined command out of the input ring.
  batch_.clear();
  batch_args_.clear();
  uint64_t batch_ops = 0;
  bool protocol_error = false;
  while (true) {
    const ParseStatus status = parser_.Parse(&in_, &cmd_);
    if (status == ParseStatus::kNeedMore) {
      break;
    }
    if (status == ParseStatus::kError) {
      protocol_error = true;
      break;
    }
    PendingCmd pending;
    pending.args_begin = batch_args_.size();
    batch_args_.insert(batch_args_.end(), cmd_.args.begin(), cmd_.args.end());
    pending.args_end = batch_args_.size();
    const std::string_view verb = cmd_.args[0];
    pending.verb = VerbIs(verb, "GET")   ? Verb::kGet
                   : VerbIs(verb, "SET") ? Verb::kSet
                                         : Verb::kOther;
    pending.ops = static_cast<uint32_t>(OpsForCommand(verb, cmd_.args.size()));
    batch_ops += pending.ops;
    batch_.push_back(pending);
  }

  uint64_t shed_ops = 0;
  const uint64_t acquired = ReserveBatch(batch_ops, &shed_ops);

  // Pass 2: execute in command order. A run of GET/SET commands is one
  // ExecuteBatch; every other command executes on its own.
  executed_ops_ = 0;
  size_t i = 0;
  while (i < batch_.size()) {
    if (batch_[i].verb != Verb::kOther) {
      size_t end = i;
      while (end < batch_.size() && batch_[end].verb != Verb::kOther) {
        ++end;
      }
      if (ops_.size() < end - i) {  // run scratch, sized outside the hot region
        ops_.resize(end - i);
        results_.resize(end - i);
      }
      ExecuteRun(i, end);
      i = end;
      continue;
    }
    const PendingCmd& pending = batch_[i++];
    if (pending.shed) {
      AppendError(&out_, kShedReply);
      continue;
    }
    if (!ExecuteCommand(batch_args_.data() + pending.args_begin,
                        pending.args_end - pending.args_begin)) {
      closing_ = true;
      break;
    }
  }
  if (acquired > 0) {
    host_->ReleaseOps(acquired);
  }
  host_->OnCommands(batch_.size(), executed_ops_, shed_ops);

  if (protocol_error) {
    AppendError(&out_, parser_.error());
    closing_ = true;
  }
  return !closing_;
}

uint64_t Connection::ReserveBatch(uint64_t batch_ops, uint64_t* shed_ops) {
  if (batch_ops == 0 || host_->AcquireOps(batch_ops)) {
    return batch_ops;
  }
  // The batch does not fit under the watermark: admit command by command,
  // shedding each one that no longer fits.
  uint64_t acquired = 0;
  for (PendingCmd& pending : batch_) {
    if (pending.ops == 0) {
      continue;
    }
    if (host_->AcquireOps(pending.ops)) {
      acquired += pending.ops;
    } else {
      pending.shed = true;
      *shed_ops += pending.ops;
    }
  }
  return acquired;
}

// ditto-lint: hot-path-begin(served-batch)
void Connection::ExecuteRun(size_t begin, size_t end) {
  // Collect: one kGet/kSet op per well-formed, admitted command.
  size_t n = 0;
  for (size_t j = begin; j < end; ++j) {
    PendingCmd& pending = batch_[j];
    if (pending.shed) {
      continue;
    }
    const std::string_view* args = batch_args_.data() + pending.args_begin;
    const size_t argc = pending.args_end - pending.args_begin;
    if (pending.verb == Verb::kGet) {
      if (argc != 2) {
        pending.error = "ERR wrong number of arguments for 'get' command";
        continue;
      }
      ops_[n++] = sim::CacheOp::Get(args[1], /*want_value=*/true);
      continue;
    }
    uint64_t ttl_ticks = 0;
    if (argc == 5 && (VerbIs(args[3], "EX") || VerbIs(args[3], "PX") || VerbIs(args[3], "TTL"))) {
      if (!ParseU64(args[4], &ttl_ticks)) {
        pending.error = kNotInteger;
        continue;
      }
    } else if (argc != 3) {
      pending.error = argc < 3 ? "ERR wrong number of arguments for 'set' command"
                               : "ERR syntax error";
      continue;
    }
    ops_[n++] = sim::CacheOp::Set(args[1], args[2], ttl_ticks);
  }

  // Execute: one call for the whole run, ops in command order. It writes
  // every result; a hit's value is assigned into the reused string.
  if (n > 0) {
    host_->client()->ExecuteBatch({ops_.data(), n}, results_.data());
    executed_ops_ += n;
  }

  // Format: one reply per command, in command order.
  size_t k = 0;
  for (size_t j = begin; j < end; ++j) {
    const PendingCmd& pending = batch_[j];
    if (pending.shed) {
      AppendError(&out_, kShedReply);
      continue;
    }
    if (!pending.error.empty()) {
      AppendError(&out_, pending.error);
      continue;
    }
    const sim::CacheResult& r = results_[k++];
    if (r.status == sim::OpStatus::kUnavailable) {
      AppendError(&out_, pending.verb == Verb::kGet
                             ? "UNAVAILABLE 'get' aborted: backing node crashed or retries "
                               "exhausted, retry"
                             : "UNAVAILABLE 'set' aborted: backing node crashed or retries "
                               "exhausted, retry");
    } else if (pending.verb == Verb::kSet) {
      if (r.status == sim::OpStatus::kStored) {
        AppendSimple(&out_, "OK");
      } else {
        AppendError(&out_, "OOM store dropped (memory exhausted, nothing evictable)");
      }
    } else if (r.hit()) {
      AppendBulk(&out_, r.value);
    } else {
      AppendNil(&out_);
    }
  }
}
// ditto-lint: hot-path-end(served-batch)

bool Connection::ExecuteCommand(const std::string_view* args, size_t argc) {
  const std::string_view verb = args[0];

  if (VerbIs(verb, "PING")) {
    if (argc == 1) {
      AppendSimple(&out_, "PONG");
    } else {
      AppendBulk(&out_, args[1]);
    }
    return true;
  }
  if (VerbIs(verb, "QUIT")) {
    AppendSimple(&out_, "OK");
    return false;
  }
  if (VerbIs(verb, "INFO")) {
    info_.clear();
    host_->FormatInfo(&info_);
    AppendBulk(&out_, info_);
    return true;
  }

  if (VerbIs(verb, "DEL")) {
    if (argc < 2) {
      WrongArity("del");
      return true;
    }
    ops_.clear();
    for (size_t i = 1; i < argc; ++i) {
      ops_.push_back(sim::CacheOp::Delete(args[i]));
    }
    ExecuteOps();
    if (AnyUnavailable()) {
      Unavailable("del");
      return true;
    }
    int64_t deleted = 0;
    for (const sim::CacheResult& r : results_) {
      deleted += r.status == sim::OpStatus::kDeleted ? 1 : 0;
    }
    AppendInteger(&out_, deleted);
    return true;
  }

  if (VerbIs(verb, "EXPIRE")) {
    uint64_t ttl_ticks = 0;
    if (argc != 3) {
      WrongArity("expire");
      return true;
    }
    if (!ParseU64(args[2], &ttl_ticks)) {
      AppendError(&out_, kNotInteger);
      return true;
    }
    ops_.assign(1, sim::CacheOp::Expire(args[1], ttl_ticks));
    ExecuteOps();
    if (AnyUnavailable()) {
      Unavailable("expire");
      return true;
    }
    AppendInteger(&out_, results_[0].status == sim::OpStatus::kStored ? 1 : 0);
    return true;
  }

  if (VerbIs(verb, "MGET")) {
    if (argc < 2) {
      WrongArity("mget");
      return true;
    }
    // A run of kMultiGet ops in one batch is the client protocol's fused
    // multi-get: batching-capable clients chain the whole run's metadata
    // verbs behind one NIC doorbell.
    ops_.clear();
    for (size_t i = 1; i < argc; ++i) {
      ops_.push_back(sim::CacheOp::MultiGet(args[i], /*want_value=*/true));
    }
    ExecuteOps();
    if (AnyUnavailable()) {
      // RESP2 has no per-element error inside an array: one unrouteable key
      // fails the whole MGET rather than masquerading as a nil.
      Unavailable("mget");
      return true;
    }
    AppendArrayHeader(&out_, results_.size());
    for (const sim::CacheResult& r : results_) {
      if (r.hit()) {
        AppendBulk(&out_, r.value);
      } else {
        AppendNil(&out_);
      }
    }
    return true;
  }

  if (VerbIs(verb, "TTL")) {
    if (argc != 2) {
      WrongArity("ttl");
      return true;
    }
    // The CacheOp protocol has no TTL read-back; probe existence with a
    // valueless Get. -1 = cached (remaining ticks not exposed), -2 = absent,
    // matching redis's "no TTL" / "no key" distinction.
    ops_.assign(1, sim::CacheOp::Get(args[1], /*want_value=*/false));
    ExecuteOps();
    if (AnyUnavailable()) {
      Unavailable("ttl");
      return true;
    }
    AppendInteger(&out_, results_[0].hit() ? -1 : -2);
    return true;
  }

  AppendError(&out_, "ERR unknown command '" + std::string(verb) + "'");
  return true;
}

void Connection::ExecuteOps() {
  results_.assign(ops_.size(), sim::CacheResult{});
  host_->client()->ExecuteBatch({ops_.data(), ops_.size()}, results_.data());
  executed_ops_ += ops_.size();
}

void Connection::WrongArity(std::string_view verb) {
  AppendError(&out_,
              "ERR wrong number of arguments for '" + std::string(verb) + "' command");
}

bool Connection::AnyUnavailable() const {
  for (const sim::CacheResult& r : results_) {
    if (r.status == sim::OpStatus::kUnavailable) {
      return true;
    }
  }
  return false;
}

void Connection::Unavailable(std::string_view verb) {
  AppendError(&out_, "UNAVAILABLE '" + std::string(verb) +
                         "' aborted: backing node crashed or retries exhausted, retry");
}

}  // namespace ditto::net
