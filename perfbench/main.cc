// The deepsurf benchmark: one workload per run.
//
//   perfbench --workload surface|serve_longtail|serve_churn --seed N
//             --seconds S --trace 0|1 [--expect-fingerprint LINE]
//             [--fingerprint-only]
//
// Prints what it checks and measures, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// measured through span-recording decorators. Exits 0 when every check
// passed, 1 when one failed, 2 on a usage or set-up error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Def {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run. A layer a workload does not cross
// reports 0.
const Def kPerLayer[] = {
    {"core.analyze_inputs_ms", "ms"},
    {"core.mine_candidates_ms", "ms"},
    {"core.search_templates_ms", "ms"},
    {"core.emit_urls_ms", "ms"},
    {"core.mine_candidates_probes", "count"},
    {"core.search_templates_probes", "count"},
    {"core.probes_per_form", "count"},
    {"core.templates_evaluated", "count"},
    {"core.informative_ratio", "ratio"},
    {"core.urls_per_form", "count"},
    {"core.nonempty_url_ratio", "ratio"},
    {"crawler.form_ms.p50", "ms"},
    {"crawler.form_ms.p90", "ms"},
    {"crawler.ingest_ms", "ms"},
    {"crawler.new_doc_ratio", "ratio"},
    {"crawler.records_covered", "count"},
    {"net.site_ms", "ms"},
    {"net.site_requests_per_form", "count"},
    {"net.probe_cache_hit_rate", "ratio"},
    {"net.coalesced", "count"},
    {"net.evictions", "count"},
    {"net.refetch_ratio", "ratio"},
    {"index.search_ms.p50", "ms"},
    {"index.search_ms.p99", "ms"},
    {"index.blocks_decoded_per_query", "count"},
    {"index.blocks_skipped_per_query", "count"},
    {"index.decode_cache_hits_per_query", "count"},
    {"index.insert_batch_ms.p50", "ms"},
    {"index.insert_batch_ms.p99", "ms"},
    {"index.bytes_per_posting", "bytes"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.engine_self_ms.p50", "ms"},
    {"serve.engine_self_ms.p99", "ms"},
    {"serve.invalidations_per_doc", "count"},
    {"remote.rpc_ms.p50", "ms"},
    {"remote.rpc_ms.p99", "ms"},
    {"remote.rpcs_per_query", "count"},
    {"remote.bytes_per_query", "bytes"},
    {"remote.queue_wait_ms.p99", "ms"},
    {"remote.hedges_per_query", "count"},
    {"remote.ingest_batch_ms.p50", "ms"},
    {"remote.ingest_batch_ms.p99", "ms"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "surface|serve_longtail|serve_churn --seed N --seconds S "
               "--trace 0|1 [--expect-fingerprint LINE] [--fingerprint-only]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--fingerprint-only") {
      args.fingerprint_only = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--expect-fingerprint") {
      args.expect_fingerprint = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  int (*run)(const Args&, Tracer*, Report*, LayerMetrics*) = nullptr;
  if (args.workload == "surface") run = RunSurface;
  if (args.workload == "serve_longtail") run = RunServeLongtail;
  if (args.workload == "serve_churn") run = RunServeChurn;
  if (run == nullptr) return Usage("unknown --workload");

  std::printf("perfbench: workload %s seed %" PRIu64 " seconds %g trace %d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  Tracer tracer(args.trace);
  Report report;
  LayerMetrics layers;
  if (int rc = run(args, &tracer, &report, &layers); rc != 0) return rc;
  if (args.fingerprint_only) return report.correct() ? 0 : 1;

  Report out = report;
  if (args.trace) {
    std::set<std::string> known;
    for (const Def& d : kPerLayer) {
      known.insert(d.name);
      auto it = layers.find(d.name);
      out.Metric(d.name, it == layers.end() ? 0.0 : it->second, d.unit);
    }
    for (const auto& [name, value] : layers) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                     name.c_str());
        return 2;
      }
    }
  }
  std::printf("%s\n", out.Json().c_str());
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
