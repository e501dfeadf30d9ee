// ditto_perfbench: runs one benchmark workload and prints its metrics, one
// per line with units, then the one-line JSON result.
//
//   ditto_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: served-hit (see served.cc) and replay-shift (see replay.cc). --trace 0 reports the end-to-end metrics;
// --trace 1 runs the traced pass and reports the per-layer metrics. The
// metric arithmetic self-test runs first on every invocation; the process
// exits 1 if it or any output check fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "clients.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {

void WriteSpans(const std::string& path, const std::vector<const SpanRecorder*>& recorders) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "# cannot write spans to %s\n", path.c_str());
    return;
  }
  int64_t origin = INT64_MAX;
  for (const SpanRecorder* r : recorders) {
    for (const Span& s : r->retained()) {
      origin = std::min(origin, s.start_ns);
    }
  }
  out << "recorder\top\tspan\tparent\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < recorders.size(); ++i) {
    const std::vector<Span>& spans = recorders[i]->retained();
    for (const Span& s : spans) {
      out << i << '\t' << s.op << '\t' << SpanNameString(s.name) << '\t'
          << (s.parent == kNoParent ? "-" : SpanNameString(spans[s.parent].name)) << '\t'
          << s.start_ns - origin << '\t' << s.end_ns - origin << '\n';
    }
  }
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ditto_perfbench --workload <served-hit|replay-shift> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }

  perfbench::Report report;
  std::string why;
  if (!perfbench::SelfTest(&why)) {
    report.Fail("metric self-test: " + why);
  }
  if (args.seconds <= 0.0) {
    return Usage();
  }
  if (args.workload == "served-hit") {
    perfbench::RunServed(args, &report);
  } else if (args.workload == "replay-shift") {
    perfbench::RunReplay(args, &report);
  } else {
    return Usage();
  }

  for (const perfbench::Metric& m : report.metrics()) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
