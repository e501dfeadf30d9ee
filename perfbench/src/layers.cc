#include "layers.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "hashtable/layout.h"
#include "rdma/verbs.h"

namespace ht = ditto::ht;

namespace perfbench {

void MergeSpans(const SpanRecorder& recorder, LayerRun* run) {
  for (size_t i = 0; i < recorder.totals().size() && i < run->spans.size(); ++i) {
    run->spans[i].count += recorder.totals()[i].count;
    run->spans[i].total_ns += recorder.totals()[i].total_ns;
    run->spans[i].self_ns += recorder.totals()[i].self_ns;
  }
}

namespace {

double Per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void ReportLayers(const LayerRun& run, Report* report) {
  const LayerCounters& d = run.delta;
  const auto ops = static_cast<double>(run.ops);
  const auto& s = run.spans;
  const auto total = [&](uint32_t name) { return static_cast<double>(s[name].total_ns); };
  const auto self = [&](uint32_t name) { return static_cast<double>(s[name].self_ns); };
  const auto gets = static_cast<double>(s[kSpanCoreGet].count);
  const auto sets = static_cast<double>(s[kSpanCoreSet].count);
  const double exec_ops = gets + sets;

  report->Set("net.parse_ns_per_cmd", run.parse_ns_per_cmd, "ns");
  report->Set("net.conn_self_ns_per_cmd", run.conn_self_ns_per_cmd, "ns");
  report->Set("net.sys_cpu_us_per_op",
              run.served ? Per(run.system_sys_ns / 1000.0, ops) : 0.0, "us");
  report->Set("net.reactor_skew", run.reactor_skew, "ratio");
  report->Set("net.shed_ops", static_cast<double>(run.shed_ops), "count");
  report->Set("net.error_replies", static_cast<double>(run.error_replies), "count");

  const double engine_self_ns =
      run.engine ? std::max(0.0, run.wall_s * 1e9 * run.threads - total(kSpanSimExec)) : 0.0;
  report->Set("sim.exec_ns_per_op", Per(total(kSpanSimExec), exec_ops), "ns");
  report->Set("sim.engine_self_ns_per_op", Per(engine_self_ns, ops), "ns");
  report->Set("sim.ops_per_exec_call", Per(exec_ops, static_cast<double>(s[kSpanSimExec].count)),
              "ops");

  report->Set("core.get_ns", Per(total(kSpanCoreGet), gets), "ns");
  report->Set("core.set_ns", Per(total(kSpanCoreSet), sets), "ns");
  report->Set("core.get.verify_ns", Per(total(kSpanGetVerify), gets), "ns");
  report->Set("core.get.miss_ns", Per(total(kSpanGetMiss), gets), "ns");
  report->Set("core.set.reserve_ns", Per(total(kSpanSetReserve), sets), "ns");
  report->Set("core.steps_per_get", Per(static_cast<double>(run.get_steps), gets), "steps");
  report->Set("core.steps_per_set", Per(static_cast<double>(run.set_steps), sets), "steps");
  report->Set("core.regrets_per_kop", Per(1000.0 * static_cast<double>(d.regrets), ops), "count");
  report->Set("core.weight_updates", static_cast<double>(d.weight_updates), "count");
  report->Set("core.expert_switches", static_cast<double>(d.expert_switches), "count");
  report->Set("core.cas_failures_per_kop", Per(1000.0 * static_cast<double>(d.cas_failures), ops),
              "count");
  report->Set("core.insert_retries_per_kop",
              Per(1000.0 * static_cast<double>(d.insert_retries), ops), "count");
  report->Set("core.dup_resolved_per_kop", Per(1000.0 * static_cast<double>(d.dup_resolved), ops),
              "count");
  report->Set("core.set_retries_per_kop", Per(1000.0 * static_cast<double>(d.set_retries), ops),
              "count");

  report->Set("hashtable.match_ns", Per(total(kSpanGetMatch) + total(kSpanSetMatch), exec_ops),
              "ns");
  report->Set("hashtable.publish_ns",
              Per(total(kSpanSetPublish) + total(kSpanSetUpdatePublish), sets), "ns");
  report->Set("hashtable.fill",
              Per(static_cast<double>(d.cached_objects), static_cast<double>(run.table_slots)),
              "ratio");

  report->Set("policies.evict_ns", Per(total(kSpanSetEvict), sets), "ns");
  report->Set("policies.evictions_per_set",
              Per(static_cast<double>(d.evictions), static_cast<double>(d.sets)), "ratio");

  report->Set("dm.alloc_ns", Per(total(kSpanSetAlloc) + total(kSpanSetUpdateAlloc), sets), "ns");
  report->Set("dm.segments_per_kset",
              Per(1000.0 * static_cast<double>(d.segments), static_cast<double>(d.sets)), "count");
  report->Set("dm.cached_frac",
              Per(static_cast<double>(d.cached_objects), static_cast<double>(run.capacity)),
              "ratio");

  report->Set("rdma.reads_per_op", Per(static_cast<double>(d.reads), ops), "verbs");
  report->Set("rdma.writes_per_op", Per(static_cast<double>(d.writes), ops), "verbs");
  report->Set("rdma.atomics_per_op", Per(static_cast<double>(d.atomics), ops), "verbs");
  report->Set("rdma.rpcs_per_op", Per(static_cast<double>(d.rpcs), ops), "rpcs");
  report->Set("rdma.nic_msgs_per_op", Per(static_cast<double>(d.nic_msgs), ops), "msgs");
  report->Set("rdma.nic_bytes_per_op", Per(static_cast<double>(d.nic_bytes), ops), "bytes");
  report->Set("rdma.doorbells_per_op", Per(static_cast<double>(d.doorbells), ops), "count");
  // Virtual elapsed time as sim::RunResult derives it: the slowest of the
  // mean client clock and the NIC / controller-CPU service horizons.
  const double mean_busy = Per(static_cast<double>(d.busy_ns), run.clients);
  const double virt_elapsed =
      std::max({mean_busy, static_cast<double>(d.nic_horizon_ns),
                static_cast<double>(d.cpu_horizon_ns)});
  report->Set("rdma.nic_busy_frac", Per(static_cast<double>(d.nic_horizon_ns), virt_elapsed),
              "ratio");
  report->Set("rdma.cpu_busy_frac", Per(static_cast<double>(d.cpu_horizon_ns), virt_elapsed),
              "ratio");
  report->Set("rdma.virt_p50_us", run.virt_p50_us, "us");
  report->Set("rdma.virt_p99_us", run.virt_p99_us, "us");
  report->Set("rdma.verb_ns_1t", run.verb_ns_1t, "ns");
  report->Set("rdma.verb_ns_4t", run.verb_ns_4t, "ns");

  report->Set("workloads.gen_s", run.gen_s, "s");
  report->Set("get_p99_us", run.get_p99_us, "us");
  report->Set("set_p99_us", run.set_p99_us, "us");
  report->Set("loadgen.cpu_frac", run.loadgen_cpu_frac, "ratio");
  report->Set("loadgen.late_p99_us", run.loadgen_late_p99_us, "us");
  report->Set("trace_overhead", run.trace_overhead, "ratio");
  report->Set("failed_frac", run.failed_frac, "ratio");

  // Where the system threads' CPU per op went, by layer self time. Span
  // times are wall time on threads that are busy throughout, so they stand
  // in for CPU time; what no span or kernel time covers stays unattributed
  // (reactor event loop, socket buffers, the replay loop's own bookkeeping
  // outside the engine self estimate, cache misses the spans do not see).
  const double cpu_per_op = Per(run.system_cpu_ns, ops);
  const double cmds_per_op = Per(static_cast<double>(d.gets + d.sets), ops);
  const double net = run.served ? run.conn_self_ns_per_cmd * cmds_per_op : 0.0;
  const double sim = Per(self(kSpanSimExec) + engine_self_ns, ops);
  const double core = Per(self(kSpanCoreGet) + self(kSpanCoreSet) + total(kSpanGetStart) +
                              total(kSpanGetVerify) + total(kSpanGetMiss) +
                              total(kSpanSetStart) + total(kSpanSetReserve),
                          ops);
  const double hashtable = Per(total(kSpanGetMatch) + total(kSpanSetMatch) +
                                   total(kSpanSetPublish) + total(kSpanSetUpdatePublish),
                               ops);
  const double policies = Per(total(kSpanSetEvict), ops);
  const double dm = Per(total(kSpanSetAlloc) + total(kSpanSetUpdateAlloc), ops);
  const double kernel = Per(run.system_sys_ns, ops);
  report->Set("attrib.cpu_ns_per_op", cpu_per_op, "ns");
  report->Set("attrib.net_frac", Per(net, cpu_per_op), "ratio");
  report->Set("attrib.sim_frac", Per(sim, cpu_per_op), "ratio");
  report->Set("attrib.core_frac", Per(core, cpu_per_op), "ratio");
  report->Set("attrib.hashtable_frac", Per(hashtable, cpu_per_op), "ratio");
  report->Set("attrib.policies_frac", Per(policies, cpu_per_op), "ratio");
  report->Set("attrib.dm_frac", Per(dm, cpu_per_op), "ratio");
  report->Set("attrib.kernel_frac", Per(kernel, cpu_per_op), "ratio");
  report->Set("attrib.unattributed_frac",
              cpu_per_op > 0.0
                  ? 1.0 - (net + sim + core + hashtable + policies + dm + kernel) / cpu_per_op
                  : 0.0,
              "ratio");
}

double VerbNs(int threads, double seconds) {
  dm::PoolConfig config;
  config.memory_bytes = size_t{32} << 20;
  config.num_buckets = 4096;
  config.capacity_objects = 1024;
  dm::MemoryPool pool(config);
  const size_t bucket_bytes = static_cast<size_t>(pool.slots_per_bucket()) * ht::kSlotBytes;

  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    std::vector<double> per_thread(threads, 0.0);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        rdma::ClientContext ctx(static_cast<uint32_t>(t));
        rdma::Verbs verbs(&pool.node(), &ctx);
        std::vector<uint8_t> buf(bucket_bytes);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        const int64_t begin = NowNs();
        const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
        uint64_t n = 0;
        int64_t now = begin;
        while (now < deadline) {
          for (int i = 0; i < 256; ++i, ++n) {
            const uint64_t bucket = (n * 2654435761ULL + static_cast<uint64_t>(t)) %
                                    pool.num_buckets();
            const uint64_t wr =
                verbs.PostRead(pool.table_addr() + bucket * bucket_bytes, buf.data(), bucket_bytes);
            verbs.WaitWr(wr);
          }
          now = NowNs();
        }
        per_thread[t] = static_cast<double>(now - begin) / static_cast<double>(n);
      });
    }
    while (ready.load() < threads) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) {
      w.join();
    }
    double sum = 0.0;
    for (double v : per_thread) {
      sum += v;
    }
    rounds.push_back(sum / threads);
  }
  return Median(rounds);
}

}  // namespace perfbench
