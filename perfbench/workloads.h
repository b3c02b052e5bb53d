// The three workloads. Each sets up its inputs (several times, to time
// set-up), checks their fingerprint, measures for args.seconds, checks
// its outputs, and reports the end-to-end metrics (untraced run) or the
// per-layer metrics it measures (traced run) into `report` / `layers`.
// Returns 0; 1 when the inputs differ from their recorded fingerprint; 2
// when the run could not be set up.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "common.h"
#include "tracing.h"

namespace perfbench {

/// Per-layer metric values by name. A layer the workload does not cross
/// is left out and reported as 0.
using LayerMetrics = std::map<std::string, double>;

/// Top-k of every served query.
constexpr size_t kTopK = 10;

int RunSurface(const Args& args, Tracer* tracer, Report* report,
               LayerMetrics* layers);
int RunServeLongtail(const Args& args, Tracer* tracer, Report* report,
                     LayerMetrics* layers);
int RunServeChurn(const Args& args, Tracer* tracer, Report* report,
                  LayerMetrics* layers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
