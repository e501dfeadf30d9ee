// served-hit: the benchmark's single-thread generator against an in-process
// net::Server with 2 reactors sharing one pool, over 4 loopback connections
// placed 2 per reactor. YCSB-C (100% GET), 100,000 keys, zipf 0.99, 232-B
// values; capacity 131,072 objects, every key preloaded, so every GET hits
// and eviction/allocation stay idle. SET windows over the same keys (updates
// in place) give set_p50_us.
//
// A run is a series of short rounds, each a closed-loop GET window and a
// closed-loop SET window (lockstep batches of 32 commands per connection),
// until --seconds is used; every end-to-end metric is the median of the
// rounds' values, so a slow spell of the host sets only a few of many
// samples. The latencies are each command's time from its batch's send to
// its reply: an open loop at a rate one generator thread can offer leaves
// the reactors idle between ops, so its p50 is mostly the time to wake an
// idle reactor, which on a shared virtual machine jumps between host regimes
// (about 20 and 27 us; interquartile range 0.38 of the median over 10
// seeds). The traced run keeps an open-loop phase at kOpenRate for the
// per-layer p99s and the generator's lateness.
#include <cstdio>

#include "layers.h"
#include "loadgen.h"
#include "net/connection.h"
#include "net/server.h"
#include "workloads.h"
#include "workloads/ycsb.h"

namespace perfbench {

namespace net = ditto::net;

namespace {

constexpr uint64_t kKeys = 100000;
constexpr uint64_t kCapacity = 131072;
constexpr uint64_t kTraceOps = 2000000;  // cycled by the generator
// Open-loop offered rate (op/s). Well below sat_kops: in the open loop every
// op is its own loopback write, and the single generator thread, which pays
// the kernel's receive path for each write it sends, saturates near twice
// this rate.
constexpr double kOpenRate = 100000;
// One measured round: a GET window over the trace, then a SET window over
// its keys.
constexpr double kGetWindowS = 0.25;
constexpr double kSetWindowS = 0.05;

// Deployment, server and connected generator; torn down in reverse order
// (connections close, reactors join, then the cache goes away).
struct Rig {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<Generator> gen;

  std::vector<uint64_t> ReactorCalls() const {
    std::vector<uint64_t> calls;
    for (const auto& c : d->clients) {
      calls.push_back(c->calls());
    }
    return calls;
  }
  void RecordVirt(bool on) {
    for (auto& c : d->clients) {
      c->set_record_virt(on);
    }
  }
  void Stop() {
    gen.reset();
    server->Stop();
  }
};

std::unique_ptr<Rig> SetUp(const workload::Trace& trace, Wrap wrap, std::string* error) {
  auto rig = std::make_unique<Rig>();
  DeployOptions deploy;
  deploy.capacity = kCapacity;
  deploy.clients = kReactors;
  deploy.validate_inserts = true;  // reactors share one pool
  deploy.wrap = wrap;
  rig->d = Deploy(deploy);
  rig->RecordVirt(false);
  rig->server = std::make_unique<net::Server>(rig->d->raw, net::ServerOptions{});
  if (!rig->server->Start(error)) {
    return nullptr;
  }
  rig->gen = std::make_unique<Generator>(&trace, kKeys, rig->server->port());
  if (!rig->gen->Connect([&r = *rig] { return r.ReactorCalls(); }, error)) {
    return nullptr;
  }
  rig->gen->ClosedLoop(Source::kPreload, 60.0);
  if (!rig->gen->protocol_error().empty()) {
    *error = rig->gen->protocol_error();
    return nullptr;
  }
  return rig;
}

// CPU of each reactor thread (ns) and its kernel part (clock ticks).
struct ReactorCpu {
  std::vector<int64_t> cpu_ns;
  std::vector<uint64_t> sys_ticks;
};

ReactorCpu ReadReactorCpu(Deployment& d) {
  ReactorCpu cpu;
  for (auto& c : d.clients) {
    uint64_t user = 0;
    uint64_t sys = 0;
    TaskCpuTicks(c->tid(), &user, &sys);
    cpu.cpu_ns.push_back(ThreadCpuNs(c->thread()));
    cpu.sys_ticks.push_back(sys);
  }
  return cpu;
}

void AddTally(const PhaseStats& st, Report* report) {
  report->attempted += st.tally.attempted;
  report->failed += st.tally.failed();
}

// Output checks against the server's own counters: every executed command
// shows up once in ServerStats::ops and in the reactors' client counters,
// every hit the generator saw was counted by a reactor, and every value it
// read back named the right key and a version it had sent.
void CheckServed(Rig& rig, Report* report) {
  const Generator& gen = *rig.gen;
  if (!gen.protocol_error().empty()) {
    report->Fail("generator: " + gen.protocol_error());
  }
  if (gen.bad_values() > 0) {
    report->Fail(std::to_string(gen.bad_values()) + " GET replies carried a wrong value");
  }
  const std::vector<int> placement = gen.placement();
  for (int per_reactor : placement) {
    if (per_reactor != 2) {
      report->Fail("connections are not placed 2 per reactor");
      break;
    }
  }
  const uint64_t executed = gen.executed();
  const uint64_t hits_seen = gen.hits_seen();
  const uint64_t gets_executed = gen.gets_executed();
  rig.Stop();
  const net::ServerStats stats = rig.server->stats();
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t hits = 0;
  for (auto& c : rig.d->clients) {
    const sim::ClientCounters counters = c->counters();
    gets += counters.gets;
    sets += counters.sets;
    hits += counters.hits;
  }
  if (stats.ops != executed || gets + sets != executed || gets != gets_executed ||
      hits != hits_seen) {
    report->Fail("server counters disagree with the generator: ops " +
                 std::to_string(stats.ops) + ", client gets+sets " +
                 std::to_string(gets + sets) + ", generator " + std::to_string(executed) +
                 "; hits " + std::to_string(hits) + " vs " + std::to_string(hits_seen));
  }
}

// Socketless replay of captured command bytes through net::Connection with
// the benchmark's own ConnectionHost: one net.conn span per ProcessInput
// batch (one batch per captured send), the client's spans nested inside.
class ReplayHost : public net::ConnectionHost {
 public:
  explicit ReplayHost(sim::CacheClient* client) : client_(client) {}
  bool AcquireOps(size_t) override { return true; }
  void ReleaseOps(size_t) override {}
  sim::CacheClient* client() override { return client_; }
  void FormatInfo(std::string* out) override { out->clear(); }
  void OnCommands(uint64_t commands, uint64_t, uint64_t) override { commands_ += commands; }
  const net::RespLimits& limits() override { return limits_; }
  uint64_t commands() const { return commands_; }

 private:
  sim::CacheClient* client_;
  net::RespLimits limits_;
  uint64_t commands_ = 0;
};

void ReplayNet(const std::vector<char>& bytes, const std::vector<uint32_t>& sends,
               TracedClient* client, LayerRun* run) {
  // RespParser::Parse alone over the whole capture, median of five passes.
  net::RingBuffer filled(bytes.size() + 1);
  filled.Append(std::string_view(bytes.data(), bytes.size()));
  std::vector<double> parse_ns;
  for (int pass = 0; pass < 5; ++pass) {
    net::RingBuffer rb = filled;
    net::RespParser parser;
    net::RespCommand cmd;
    uint64_t commands = 0;
    const int64_t begin = NowNs();
    while (parser.Parse(&rb, &cmd) == net::ParseStatus::kOk) {
      commands++;
    }
    const int64_t elapsed = NowNs() - begin;
    if (commands > 0) {
      parse_ns.push_back(static_cast<double>(elapsed) / static_cast<double>(commands));
    }
  }
  run->parse_ns_per_cmd = Median(parse_ns);

  SpanRecorder& recorder = client->recorder();
  recorder.Flush();
  const SpanTotals before = recorder.totals()[kSpanNetConn];
  ReplayHost host(client);
  net::Connection conn(-1, &host);
  size_t offset = 0;
  for (uint32_t n : sends) {
    conn.in().Append(std::string_view(bytes.data() + offset, n));
    offset += n;
    const uint32_t span = recorder.Begin(kSpanNetConn, 0);
    const bool open = conn.ProcessInput();
    recorder.End(span);
    conn.out().Consume(conn.out().size());
    if (!open) {
      break;
    }
  }
  recorder.Flush();
  const int64_t self = recorder.totals()[kSpanNetConn].self_ns - before.self_ns;
  run->conn_self_ns_per_cmd =
      host.commands() == 0 ? 0.0
                           : static_cast<double>(self) / static_cast<double>(host.commands());
}

workload::Trace MakeTrace(uint64_t seed) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = kKeys;
  ycsb.zipf_theta = 0.99;
  return workload::MakeYcsbTrace(ycsb, kTraceOps, seed);
}

// Closed-loop phase with the reactors' CPU and the deployment's counters
// read on both sides (the reactors are idle there: every command sent has
// been answered).
struct ClosedPhase {
  PhaseStats st;
  LayerCounters delta;
  std::vector<int64_t> reactor_cpu_ns;
  std::vector<uint64_t> reactor_sys_ticks;
  std::vector<uint64_t> reactor_ops;
};

ClosedPhase RunClosed(Rig& rig, double seconds) {
  ClosedPhase phase;
  rig.ReactorCalls();  // acquire the reactors' writes before reading their state
  std::vector<uint64_t> ops_before;
  for (auto& c : rig.d->clients) {
    ops_before.push_back(c->observed().ops);
  }
  const LayerCounters before = Snapshot(*rig.d);
  const ReactorCpu cpu_before = ReadReactorCpu(*rig.d);
  rig.RecordVirt(true);
  phase.st = rig.gen->ClosedLoop(Source::kTrace, seconds);
  rig.RecordVirt(false);
  rig.ReactorCalls();
  const ReactorCpu cpu_after = ReadReactorCpu(*rig.d);
  phase.delta = Snapshot(*rig.d) - before;
  for (size_t r = 0; r < rig.d->clients.size(); ++r) {
    phase.reactor_cpu_ns.push_back(cpu_after.cpu_ns[r] - cpu_before.cpu_ns[r]);
    phase.reactor_sys_ticks.push_back(cpu_after.sys_ticks[r] - cpu_before.sys_ticks[r]);
    phase.reactor_ops.push_back(rig.d->clients[r]->observed().ops - ops_before[r]);
  }
  return phase;
}

double Sum(const std::vector<int64_t>& v) {
  double sum = 0.0;
  for (int64_t x : v) {
    sum += static_cast<double>(x);
  }
  return sum;
}

// Flags a closed-loop phase the generator may have limited: it was busy for
// a larger share of it than the busiest reactor. Returns its busy share.
double CheckGeneratorBusy(const ClosedPhase& closed) {
  const double wall_ns = closed.st.wall_s * 1e9;
  double busiest = 0.0;
  for (int64_t ns : closed.reactor_cpu_ns) {
    busiest = std::max(busiest, static_cast<double>(ns) / wall_ns);
  }
  if (closed.st.busy_frac > busiest) {
    std::fprintf(stderr,
                 "# FLAG: generator busy share %.3f exceeds the busiest reactor CPU share %.3f\n",
                 closed.st.busy_frac, busiest);
  }
  return closed.st.busy_frac;
}

// Flags an open-loop phase whose schedule slipped. Returns the p99 of how
// late ops were sent, in us.
double CheckGeneratorLate(const PhaseStats& open) {
  std::vector<uint64_t> late = open.late.ns;
  const double late_p99_us = QuantilesUs(&late).p99;
  if (late_p99_us > 1000.0) {
    std::fprintf(stderr, "# FLAG: open-loop schedule slipped: p99 lateness %.1f us\n",
                 late_p99_us);
  }
  return late_p99_us;
}

std::vector<std::vector<uint64_t>> ByWindow(const LatencySamples& s) {
  std::vector<std::vector<uint64_t>> by_window;
  for (size_t i = 0; i < s.ns.size(); ++i) {
    if (s.window[i] >= by_window.size()) {
      by_window.resize(s.window[i] + 1);
    }
    by_window[s.window[i]].push_back(s.ns[i]);
  }
  return by_window;
}

// Median over 100 ms windows of each window's nearest-rank p99, so
// a host stall inside one window does not set the whole run's tail. Windows
// with fewer than 1000 samples (10 beyond p99) are left out, and so are
// windows in which the generator itself sent late (p99 lateness over
// kLateLimitNs): their latencies measure the generator's stall, not the
// server. If every window sent late, all of them count.
struct WindowedQuantiles {
  static constexpr uint64_t kLateLimitNs = 100000;

  std::vector<double> p99;

  void Add(const LatencySamples& s, const LatencySamples& late) {
    std::vector<std::vector<uint64_t>> by_window = ByWindow(s);
    std::vector<std::vector<uint64_t>> late_by_window = ByWindow(late);
    std::vector<size_t> on_time;
    std::vector<size_t> all;
    for (size_t w = 0; w < by_window.size(); ++w) {
      if (by_window[w].size() < 1000) {
        continue;
      }
      all.push_back(w);
      if (w < late_by_window.size() && NearestRank(&late_by_window[w], 99) <= kLateLimitNs) {
        on_time.push_back(w);
      }
    }
    for (size_t w : on_time.empty() ? all : on_time) {
      p99.push_back(QuantilesUs(&by_window[w]).p99);
    }
  }
};

}  // namespace

void RunServed(const RunArgs& args, Report* report) {
  std::string error;

  std::vector<double> setup_s;
  std::vector<double> gen_s;
  workload::Trace trace;
  std::unique_ptr<Rig> rig;
  const int setups = args.trace ? 1 : kSetupReps;
  for (int i = 0; i < setups; ++i) {
    rig.reset();
    const int64_t begin = NowNs();
    trace = MakeTrace(args.seed);
    const int64_t generated = NowNs();
    rig = SetUp(trace, Wrap::kCount, &error);
    if (rig == nullptr) {
      report->Fail("set-up: " + error);
      return;
    }
    gen_s.push_back(static_cast<double>(generated - begin) / 1e9);
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }

  if (args.trace) {
    // Untraced reference: generator validity and the traced run's overhead.
    const ClosedPhase plain = RunClosed(*rig, args.seconds * 0.25);
    const PhaseStats open = rig->gen->OpenLoop(Source::kTrace, args.seconds * 0.15,
                                               kOpenRate);
    const PhaseStats set_phase =
        rig->gen->OpenLoop(Source::kTraceAsSet, args.seconds * 0.05, kOpenRate);
    AddTally(plain.st, report);
    AddTally(open, report);
    AddTally(set_phase, report);
    LayerRun run;
    WindowedQuantiles get;
    WindowedQuantiles set;
    get.Add(open.get, open.late);
    set.Add(set_phase.set, set_phase.late);
    run.get_p99_us = Median(get.p99);
    run.set_p99_us = Median(set.p99);
    run.loadgen_cpu_frac = CheckGeneratorBusy(plain);
    run.loadgen_late_p99_us = CheckGeneratorLate(open);
    CheckServed(*rig, report);
    run.error_replies =
        plain.st.tally.error_replies + open.tally.error_replies + set_phase.tally.error_replies;
    run.shed_ops = rig->server->stats().shed_ops;
    rig.reset();

    rig = SetUp(trace, Wrap::kTrace, &error);
    if (rig == nullptr) {
      report->Fail("traced set-up: " + error);
      return;
    }
    // Span totals from set-up are subtracted; the reactors are idle.
    std::vector<std::vector<SpanTotals>> spans_before;
    std::vector<uint64_t> get_steps_before;
    std::vector<uint64_t> set_steps_before;
    for (auto& c : rig->d->clients) {
      auto* tc = static_cast<TracedClient*>(c.get());
      tc->recorder().Flush();
      tc->recorder().DropRetained();  // keep the measured phase's spans for write-out
      spans_before.push_back(tc->recorder().totals());
      get_steps_before.push_back(tc->get_steps());
      set_steps_before.push_back(tc->set_steps());
    }
    rig->gen->Capture(size_t{8} << 20);
    const ClosedPhase traced = RunClosed(*rig, args.seconds * 0.25);
    AddTally(traced.st, report);
    std::vector<char> captured = rig->gen->captured();
    std::vector<uint32_t> sends = rig->gen->captured_sends();
    run.error_replies += traced.st.tally.error_replies;
    CheckServed(*rig, report);  // stops the server: clients now belong to this thread
    const net::ServerStats stats = rig->server->stats();

    std::vector<const SpanRecorder*> recorders;
    for (size_t r = 0; r < rig->d->clients.size(); ++r) {
      auto* tc = static_cast<TracedClient*>(rig->d->clients[r].get());
      tc->recorder().Flush();
      for (size_t n = 0; n < kNumSpanNames; ++n) {
        run.spans[n].count += tc->recorder().totals()[n].count - spans_before[r][n].count;
        run.spans[n].total_ns += tc->recorder().totals()[n].total_ns - spans_before[r][n].total_ns;
        run.spans[n].self_ns += tc->recorder().totals()[n].self_ns - spans_before[r][n].self_ns;
      }
      run.get_steps += tc->get_steps() - get_steps_before[r];
      run.set_steps += tc->set_steps() - set_steps_before[r];
      recorders.push_back(&tc->recorder());
    }
    run.delta = traced.delta;
    run.ops = traced.st.trace_ops;
    run.wall_s = traced.st.wall_s;
    run.threads = kReactors;
    run.clients = kReactors;
    run.capacity = kCapacity;
    run.table_slots = rig->d->pool->num_slots();
    run.served = true;
    VirtualHistogram virt;
    for (auto& c : rig->d->clients) {
      virt.Merge(c->virt());
    }
    run.virt_p50_us = static_cast<double>(virt.PercentileNs(50)) / 1000.0;
    run.virt_p99_us = static_cast<double>(virt.PercentileNs(99)) / 1000.0;
    run.system_cpu_ns = Sum(traced.reactor_cpu_ns);
    for (uint64_t ticks : traced.reactor_sys_ticks) {
      run.system_sys_ns += static_cast<double>(ticks) * 1e9 / TicksPerSecond();
    }
    const double commands = static_cast<double>(traced.delta.gets + traced.delta.sets);
    const uint64_t max_ops =
        *std::max_element(traced.reactor_ops.begin(), traced.reactor_ops.end());
    const double mean_ops = commands / kReactors;
    run.reactor_skew = mean_ops > 0.0 ? static_cast<double>(max_ops) / mean_ops - 1.0 : 0.0;
    run.shed_ops += stats.shed_ops;
    run.trace_overhead = (static_cast<double>(plain.st.trace_ops) / plain.st.wall_s) /
                             (static_cast<double>(traced.st.trace_ops) / traced.st.wall_s) -
                         1.0;
    ReplayNet(captured, sends, static_cast<TracedClient*>(rig->d->clients[0].get()), &run);
    run.verb_ns_1t = VerbNs(1, 0.1);
    run.verb_ns_4t = VerbNs(4, 0.1);
    run.gen_s = Median(gen_s);
    run.failed_frac = report->attempted == 0 ? 0.0
                                              : static_cast<double>(report->failed) /
                                                    static_cast<double>(report->attempted);
    ReportLayers(run, report);
    WriteSpans(args.out_dir + "/" + args.workload + ".spans.tsv", recorders);
    return;
  }

  // Measured rounds until the run's time is used (at least three). The
  // generator (this thread) and the two reactors run on three distinct
  // CPUs, one CPU further along each round.
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<double> sat, cpu, virt_mops, get_p50, set_p50;
  uint64_t gets = 0;
  uint64_t hits = 0;
  int64_t longest = 0;
  CpuRotation cpus;
  std::vector<pid_t> busy = {CurrentTid()};
  for (auto& c : rig->d->clients) {
    busy.push_back(c->tid());
  }
  while (sat.size() < 3 || NowNs() + longest < deadline) {
    const int64_t begin = NowNs();
    cpus.Pin(sat.size(), busy);
    ClosedPhase closed = RunClosed(*rig, kGetWindowS);
    PhaseStats set_phase = rig->gen->ClosedLoop(Source::kTraceAsSet, kSetWindowS);
    AddTally(closed.st, report);
    AddTally(set_phase, report);
    CheckGeneratorBusy(closed);

    const auto ops = static_cast<double>(closed.st.trace_ops);
    const LayerCounters& d = closed.delta;
    const double virt_elapsed_ns = std::max({static_cast<double>(d.busy_ns) / kReactors,
                                             static_cast<double>(d.nic_horizon_ns),
                                             static_cast<double>(d.cpu_horizon_ns)});
    sat.push_back(ops / closed.st.wall_s / 1000.0);
    cpu.push_back(Sum(closed.reactor_cpu_ns) / 1000.0 / ops);
    virt_mops.push_back(ops / virt_elapsed_ns * 1000.0);
    gets += closed.st.gets;
    hits += closed.st.hits;
    get_p50.push_back(QuantilesUs(&closed.st.get.ns).p50);
    set_p50.push_back(QuantilesUs(&set_phase.set.ns).p50);
    longest = std::max(longest, NowNs() - begin);
  }
  std::fprintf(stderr, "# served-hit: %zu rounds of a %.2f s GET window and a %.2f s SET window\n",
               sat.size(), kGetWindowS, kSetWindowS);
  CheckServed(*rig, report);
  VirtualHistogram virt;
  for (auto& c : rig->d->clients) {
    virt.Merge(c->virt());
  }

  report->Set("setup_s", Median(setup_s), "s");
  report->Set("sat_kops", Median(sat), "kop/s");
  report->Set("get_p50_us", Median(get_p50), "us");
  report->Set("set_p50_us", Median(set_p50), "us");
  report->Set("hit_rate", static_cast<double>(hits) / static_cast<double>(gets), "ratio");
  report->Set("virt_mops", Median(virt_mops), "Mop/s");
  report->Set("virt_mean_us", virt.MeanNs() / 1000.0, "us");
  report->Set("cpu_us_per_op", Median(cpu), "us");
  report->Set("node_mem_mb", NodeMemMb(*rig->d), "MiB");
}

}  // namespace perfbench
