// replay-shift: the in-process replay engine, with no net layer.
// sim::RunTrace, 4 clients interleaved on one host thread over one pool;
// MakeChangingWorkload (4 equal phases alternating LFU- and LRU-friendly),
// footprint 100,000 keys, capacity 25,000, experts {lru, lfu}, 500 us miss
// penalty, set-on-miss. Bit-deterministic: every repetition must reproduce
// the first exactly.
//
// Each measured repetition replays the whole trace on a fresh deployment;
// a run repeats until --seconds is used and reports medians.
#include <algorithm>
#include <cstdio>

#include "layers.h"
#include "sim/runner.h"
#include "workloads.h"
#include "workloads/synthetic_traces.h"

namespace perfbench {

namespace workload = ditto::workload;

namespace {

constexpr int kClients = 4;
constexpr uint64_t kCapacity = 25000;

sim::RunOptions ReplayOptions() {
  sim::RunOptions options;
  options.value_bytes = 232;
  options.set_on_miss = true;
  options.miss_penalty_us = 500.0;
  return options;
}

// Everything the determinism check compares, bit for bit.
struct Fingerprint {
  uint64_t ops = 0, gets = 0, hits = 0, misses = 0, sets = 0, evictions = 0;
  uint64_t nic_messages = 0, nic_doorbells = 0, rpc_ops = 0;
  double hit_rate = 0.0, virt_mops = 0.0, engine_p50_us = 0.0, engine_p99_us = 0.0;
  uint64_t virt_p50_ns = 0, virt_p99_ns = 0;
  double virt_mean_ns = 0.0;
  LayerCounters counters;
  bool operator==(const Fingerprint& other) const = default;
};

struct Rep {
  std::unique_ptr<Deployment> d;
  sim::RunResult result;
  LayerCounters delta;
  int64_t cpu_ns = 0;
  int64_t sys_ns = 0;
  uint64_t virt_p50_ns = 0;
  uint64_t virt_p99_ns = 0;
  double virt_mean_ns = 0.0;
  double node_mem_mb = 0.0;
  Fingerprint print;
};

Rep RunOnce(const workload::Trace& trace, Wrap wrap, Report* report) {
  Rep rep;
  DeployOptions deploy;
  deploy.capacity = kCapacity;
  deploy.clients = kClients;
  deploy.wrap = wrap;
  rep.d = Deploy(deploy);
  Deployment& d = *rep.d;
  if (wrap == Wrap::kTime) {
    for (auto& c : d.clients) {
      const size_t samples = trace.size() / kClients / TimedClient::kEvery + 1;
      static_cast<TimedClient*>(c.get())->get_ns().reserve(samples);
      static_cast<TimedClient*>(c.get())->set_ns().reserve(samples);
    }
  }
  const LayerCounters before = Snapshot(d);
  const int64_t cpu_before = ProcessCpuNs();
  const int64_t sys_before = ProcessSysNs();
  rep.result = sim::RunTrace(d.raw, trace, d.node(), ReplayOptions());
  rep.cpu_ns = ProcessCpuNs() - cpu_before;
  rep.sys_ns = ProcessSysNs() - sys_before;
  rep.delta = Snapshot(d) - before;
  rep.node_mem_mb = NodeMemMb(d);

  VirtualHistogram virt;
  for (auto& c : d.clients) {
    virt.Merge(c->virt());
  }
  rep.virt_p50_ns = virt.PercentileNs(50);
  rep.virt_p99_ns = virt.PercentileNs(99);
  rep.virt_mean_ns = virt.MeanNs();

  const sim::RunResult& r = rep.result;
  if (r.hits + r.misses != r.gets) {
    report->Fail("replay: hits + misses != gets");
  }
  if (r.ops != trace.size()) {
    report->Fail("replay: replayed ops != trace length");
  }
  if (d.pool->cached_objects() > kCapacity) {
    report->Fail("replay: cached objects " + std::to_string(d.pool->cached_objects()) +
                 " exceed capacity " + std::to_string(kCapacity));
  }
  uint64_t failed = 0;
  uint64_t observed = 0;
  for (auto& c : d.clients) {
    failed += c->observed().failed;
    observed += c->observed().ops;
  }
  report->attempted += observed;
  report->failed += failed;

  Fingerprint& p = rep.print;
  p.ops = r.ops;
  p.gets = r.gets;
  p.hits = r.hits;
  p.misses = r.misses;
  p.sets = r.sets;
  p.evictions = r.evictions;
  p.nic_messages = r.nic_messages;
  p.nic_doorbells = r.nic_doorbells;
  p.rpc_ops = r.rpc_ops;
  p.hit_rate = r.hit_rate;
  p.virt_mops = r.throughput_mops;
  p.engine_p50_us = r.p50_us;
  p.engine_p99_us = r.p99_us;
  p.virt_p50_ns = rep.virt_p50_ns;
  p.virt_p99_ns = rep.virt_p99_ns;
  p.virt_mean_ns = rep.virt_mean_ns;
  p.counters = rep.delta;
  return rep;
}

struct Latency {
  Quantiles get;
  Quantiles set;
};

// Wall latency of the sampled Get and Set calls of a timed pass, over all
// clients.
Latency LatencyOf(const Rep& rep) {
  std::vector<uint64_t> get_ns;
  std::vector<uint64_t> set_ns;
  for (auto& c : rep.d->clients) {
    auto* tc = static_cast<TimedClient*>(c.get());
    get_ns.insert(get_ns.end(), tc->get_ns().begin(), tc->get_ns().end());
    set_ns.insert(set_ns.end(), tc->set_ns().begin(), tc->set_ns().end());
  }
  return Latency{QuantilesUs(&get_ns), QuantilesUs(&set_ns)};
}

void CheckSame(const Rep& a, const Rep& b, const char* what, Report* report) {
  if (!(a.print == b.print)) {
    report->Fail(std::string("replay-shift is not deterministic: ") + what);
  }
}

}  // namespace

void RunReplay(const RunArgs& args, Report* report) {
  // Set-up: trace generation plus deployment construction.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  workload::Trace trace;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t begin = NowNs();
    trace = workload::MakeChangingWorkload(4, 200000, 100000, args.seed);
    const int64_t generated = NowNs();
    DeployOptions deploy;
    deploy.capacity = kCapacity;
    deploy.clients = kClients;
    std::unique_ptr<Deployment> d = Deploy(deploy);
    const int64_t end = NowNs();
    gen_s.push_back(static_cast<double>(generated - begin) / 1e9);
    setup_s.push_back(static_cast<double>(end - begin) / 1e9);
  }
  const auto ops = static_cast<double>(trace.size());

  if (args.trace) {
    // Untraced and traced passes alternate; trace_overhead compares their
    // median wall times and the layers come from the last traced pass.
    Rep first;
    Rep traced;
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    for (int pair = 0; pair < 3; ++pair) {
      Rep plain = RunOnce(trace, Wrap::kCount, report);
      traced = RunOnce(trace, Wrap::kTrace, report);
      plain_s.push_back(plain.result.wall_s);
      traced_s.push_back(traced.result.wall_s);
      if (pair == 0) {
        first = std::move(plain);
        first.d.reset();
      } else {
        CheckSame(first, plain, "untraced passes differ", report);
      }
      CheckSame(first, traced, "traced pass differs from untraced pass", report);
    }
    LayerRun run;
    std::vector<const SpanRecorder*> recorders;
    for (auto& c : traced.d->clients) {
      auto* tc = static_cast<TracedClient*>(c.get());
      tc->recorder().Flush();
      MergeSpans(tc->recorder(), &run);
      run.get_steps += tc->get_steps();
      run.set_steps += tc->set_steps();
      recorders.push_back(&tc->recorder());
    }
    run.delta = traced.delta;
    run.ops = traced.result.ops;
    run.wall_s = traced.result.wall_s;
    run.threads = traced.result.threads;
    run.clients = kClients;
    run.capacity = kCapacity;
    run.table_slots = traced.d->pool->num_slots();
    run.engine = true;
    run.virt_p50_us = static_cast<double>(traced.virt_p50_ns) / 1000.0;
    run.virt_p99_us = static_cast<double>(traced.virt_p99_ns) / 1000.0;
    run.system_cpu_ns = static_cast<double>(traced.cpu_ns);
    run.system_sys_ns = static_cast<double>(traced.sys_ns);
    run.verb_ns_1t = VerbNs(1, 0.1);
    run.verb_ns_4t = VerbNs(4, 0.1);
    run.gen_s = Median(gen_s);
    run.trace_overhead = Median(traced_s) / Median(plain_s) - 1.0;
    const Latency latency = LatencyOf(RunOnce(trace, Wrap::kTime, report));
    run.get_p99_us = latency.get.p99;
    run.set_p99_us = latency.set.p99;
    run.failed_frac = report->attempted == 0 ? 0.0
                                              : static_cast<double>(report->failed) /
                                                    static_cast<double>(report->attempted);
    ReportLayers(run, report);
    WriteSpans(args.out_dir + "/" + args.workload + ".spans.tsv", recorders);
    return;
  }

  // Measured repetitions until the run's time is used (at least three).
  // Each replays through the sampling wall-timer, so it gives throughput and
  // latency at once. The single-threaded replay runs each repetition on the
  // next CPU in turn.
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Rep> reps;
  std::vector<Latency> latency;
  int64_t longest = 0;
  {
    CpuRotation cpus;
    const std::vector<pid_t> self = {CurrentTid()};
    while (reps.size() < 3 || NowNs() + longest < deadline) {
      const int64_t begin = NowNs();
      cpus.Pin(reps.size(), self);
      Rep rep = RunOnce(trace, Wrap::kTime, report);
      if (!reps.empty()) {
        CheckSame(reps[0], rep, "repetitions differ", report);
      }
      latency.push_back(LatencyOf(rep));
      reps.push_back(std::move(rep));
      reps.back().d.reset();  // keep one deployment alive at a time
      longest = std::max(longest, NowNs() - begin);
    }
  }

  std::vector<double> sat, cpu, hit, virt_mops, virt_mean, node_mem, get_p50, set_p50;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    sat.push_back(ops / rep.result.wall_s / 1000.0);
    cpu.push_back(static_cast<double>(rep.cpu_ns) / 1000.0 / ops);
    hit.push_back(rep.result.hit_rate);
    virt_mops.push_back(rep.result.throughput_mops);
    virt_mean.push_back(rep.virt_mean_ns / 1000.0);
    node_mem.push_back(rep.node_mem_mb);
    get_p50.push_back(latency[i].get.p50);
    set_p50.push_back(latency[i].set.p50);
  }
  std::fprintf(stderr, "# %s: %zu repetitions of %zu ops, each timing %llu gets and %llu sets\n",
               args.workload.c_str(), reps.size(), trace.size(),
               static_cast<unsigned long long>(latency[0].get.count),
               static_cast<unsigned long long>(latency[0].set.count));

  report->Set("setup_s", Median(setup_s), "s");
  report->Set("sat_kops", Median(sat), "kop/s");
  report->Set("get_p50_us", Median(get_p50), "us");
  report->Set("set_p50_us", Median(set_p50), "us");
  report->Set("hit_rate", Median(hit), "ratio");
  report->Set("virt_mops", Median(virt_mops), "Mop/s");
  report->Set("virt_mean_us", Median(virt_mean), "us");
  report->Set("cpu_us_per_op", Median(cpu), "us");
  report->Set("node_mem_mb", Median(node_mem), "MiB");
}

}  // namespace perfbench
