// The benchmark workloads. Each fills a Report with every end-to-end
// metric (untraced run) or every per-layer metric (traced run), plus the
// run's attempted/failed op counts and any failed output check.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clients.h"
#include "measure.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";  // raw spans of traced runs
};

// served-hit: loopback RESP against an in-process net::Server.
void RunServed(const RunArgs& args, Report* report);
// replay-shift: the in-process replay engine.
void RunReplay(const RunArgs& args, Report* report);

// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupReps = 5;

// Writes the retained raw spans of every recorder as TSV (recorder, op,
// span, parent, start and end in ns from the first span).
void WriteSpans(const std::string& path, const std::vector<const SpanRecorder*>& recorders);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
