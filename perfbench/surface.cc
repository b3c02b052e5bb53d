// Workload `surface`: the paper's offline system. A crawled synthweb
// corpus goes through crawler::SurfacingDriver (one worker per hardware
// thread, one shared net::ProbeScheduler) into a 4-shard ShardedIndex,
// round after round until the run's time is up. No query is served.
//
// The corpus is BuildCorpus's default one (its default seed) with 160
// deep sites, the same for every seed; --seed derives the driver's
// seed, which permutes the work queue and each form's ingest order.
// Varying the corpus itself moved forms/s by 15-25% between seeds (the
// slowest forms bound a parallel run, and which forms a corpus holds is
// luck), wider than any bound a regression check could hold. A single
// queue permutation still moved a round by ~10% (a slow form started
// last stretches the round), so round r runs with the r-th seed derived
// from --seed and the rates are taken over all the run's rounds.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "core/pipeline.h"
#include "crawler/crawler.h"
#include "crawler/surfacing_driver.h"
#include "html/parser.h"
#include "html/text.h"
#include "index/sharded_index.h"
#include "net/fetcher.h"
#include "synthweb/corpus.h"
#include "workloads.h"

namespace perfbench {

namespace ds = deepsurf;

namespace {

constexpr size_t kDeepSites = 160;
/// Set-up takes ~70 ms; its median over this many settles within a few
/// percent.
constexpr int kSetups = 60;

/// The generated inputs plus the observed web the driver fetches from:
/// every site wrapped in an ObservedSite, so per-form windows (and, when
/// tracing, per-request spans) are seen from outside the program.
struct Inputs {
  ds::synthweb::WebCorpus corpus;
  std::vector<ds::crawler::DiscoveredForm> forms;
  /// Host -> index; deep sites first, in corpus order.
  std::unordered_map<std::string, size_t> host_index;
  std::vector<size_t> form_host;  ///< work-list entry -> host index
  std::unique_ptr<FormClock> clock;
  std::unique_ptr<DistinctUrls> urls;
  std::shared_ptr<ds::net::SimulatedWeb> web;
};

std::unique_ptr<Inputs> Setup(Tracer* tracer) {
  auto in = std::make_unique<Inputs>();
  ds::synthweb::CorpusOptions co;
  co.num_deep_sites = kDeepSites;
  in->corpus = ds::synthweb::BuildCorpus(co);
  ds::crawler::CrawlOptions crawl_options;
  crawl_options.index_pages = false;
  ds::crawler::Crawler crawl(in->corpus.web.get(), nullptr, crawl_options);
  if (!crawl.Crawl({in->corpus.directory_url}).ok()) return nullptr;
  in->forms = crawl.forms();

  std::vector<std::shared_ptr<ds::net::WebServer>> sites(
      in->corpus.deep_sites.begin(), in->corpus.deep_sites.end());
  sites.insert(sites.end(), in->corpus.surface_sites.begin(),
               in->corpus.surface_sites.end());
  in->clock = std::make_unique<FormClock>(sites.size());
  in->urls = std::make_unique<DistinctUrls>();
  in->web = std::make_shared<ds::net::SimulatedWeb>();
  for (size_t i = 0; i < sites.size(); ++i) {
    in->host_index[sites[i]->host()] = i;
    if (!in->web
             ->Register(std::make_shared<ObservedSite>(
                     sites[i], i, in->clock.get(), in->urls.get(), tracer))
             .ok()) {
      return nullptr;
    }
  }
  for (const auto& f : in->forms) {
    auto it = in->host_index.find(f.page_url.host());
    if (it == in->host_index.end() || it->second >= kDeepSites) return nullptr;
    in->form_host.push_back(it->second);
  }
  return in;
}

Fingerprint InputFingerprint(const Inputs& in, uint64_t seed) {
  Fingerprint fp;
  Hasher h;
  h.Add(seed);
  for (const auto& site : in.corpus.deep_sites) {
    const auto& spec = site->spec();
    h.Add(spec.host);
    h.Add(static_cast<uint64_t>(spec.use_post));
    for (const auto& [name, table] : spec.tables) {
      h.Add(name);
      for (ds::db::RowId r = 0; r < table->num_rows(); ++r) {
        for (const auto& v : table->row(r)) h.Add(v.ToDisplayString());
      }
    }
    fp.docs += spec.TotalRows();
  }
  for (const auto& f : in.forms) {
    h.Add(f.page_url.ToCanonicalString());
    h.Add(f.form.action);
    h.Add(f.form.method);
  }
  fp.forms = in.forms.size();
  fp.hash = h.value();
  return fp;
}

struct Round {
  double wall_s = 0;
  ds::crawler::SurfacingDriverStats stats;
  uint64_t site_requests = 0;
  /// Per work-list entry; -1 for forms not analysed (POST, failed).
  std::vector<double> form_ms;
  uint64_t url_hash = 0;
  ds::index::IndexMemoryUsage memory;
  uint64_t docs_offered = 0;
  uint64_t docs_added = 0;
  size_t distinct_urls = 0;  ///< while tracing
  size_t no_results_indexed = 0;  ///< indexed "No results found" pages
  std::vector<ds::crawler::FormOutcome> outcomes;
};

/// The driver seed of round `r` of a run with --seed `seed`.
uint64_t RoundSeed(uint64_t seed, size_t r) {
  Hasher h;
  h.Add(seed);
  h.Add(static_cast<uint64_t>(r));
  return h.value();
}

Round RunRound(Inputs* in, Tracer* tracer, uint64_t seed, RssGrowth* rss) {
  Round round;
  in->clock->Reset();
  in->urls->Reset();
  ds::net::ProbeScheduler scheduler(in->web.get());
  ds::index::ShardedIndex index;
  TracedIndex traced(&index, tracer, "index.search", "index.insert_batch",
                     in->clock.get(), &in->host_index);
  ds::crawler::SurfacingDriverOptions options;
  options.num_threads = Nproc();
  options.seed = seed;
  ds::crawler::SurfacingDriver driver(&scheduler, &traced, options);
  uint64_t requests_before = in->web->total_requests();
  double start = NowS();
  auto stats = driver.Run(in->forms);
  round.wall_s = NowS() - start;
  rss->Sample();
  if (stats.ok()) round.stats = *stats;
  round.site_requests = in->web->total_requests() - requests_before;
  round.outcomes = driver.outcomes();
  round.form_ms.assign(round.outcomes.size(), -1.0);
  for (size_t i = 0; i < round.outcomes.size(); ++i) {
    const auto& out = round.outcomes[i];
    if (!out.status.ok() || out.result.skipped_post) continue;
    round.form_ms[i] = in->clock->WindowMs(in->form_host[i]);
  }
  Hasher h;
  for (const auto& url : driver.SurfacedUrlSet()) h.Add(url);
  round.url_hash = h.value();
  round.memory = index.MemoryUsage();
  // Every "No results found" page ends "adjust your search criteria".
  round.no_results_indexed = index.Search("adjust criteria", 1 << 20).size();
  round.docs_offered = traced.docs_offered();
  round.docs_added = traced.docs_added();
  round.distinct_urls = in->urls->size();
  return round;
}

/// What the surfaced pages hold, recounted by fetching every surfaced
/// URL straight from its site (outside the web's request counters).
struct Coverage {
  size_t urls = 0;
  size_t nonempty_urls = 0;  ///< pages listing at least one record
  size_t no_results = 0;     ///< pages saying "No results found"
  size_t links = 0;
  size_t unmatched = 0;
  size_t records = 0;  ///< distinct (site, table, row)
};

Coverage CheckOutcomes(const Inputs& in,
                       const std::vector<ds::crawler::FormOutcome>& outcomes,
                       Report* report) {
  const ds::core::SurfacerOptions limits;  // SurfacingDriver's default limits
  Coverage cov;
  std::set<std::tuple<size_t, size_t, uint32_t>> records;
  size_t bad_host = 0, over_cap = 0, over_budget = 0, not_ok = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (!out.status.ok()) {
      ++not_ok;
      continue;
    }
    if (out.result.skipped_post) continue;
    const auto& form = in.forms[i];
    ds::synthweb::DeepWebSite& site = *in.corpus.deep_sites[in.form_host[i]];
    if (out.result.urls.size() > limits.max_urls_per_form) ++over_cap;
    if (limits.probe_budget != 0 &&
        out.result.probes_used > limits.probe_budget) {
      ++over_budget;
    }
    for (const auto& surfaced : out.result.urls) {
      ++cov.urls;
      if (!form.form.IsGet() || surfaced.url.host() != form.page_url.host()) {
        ++bad_host;
        continue;
      }
      ds::net::HttpRequest request;
      request.url = surfaced.url;
      std::string body = site.Handle(request).body;
      if (body.find("class=\"noresults\"") != std::string::npos) {
        ++cov.no_results;
      }
      PageRecords page = ParseRecords(site.spec(), body);
      cov.links += page.links;
      cov.unmatched += page.unmatched;
      if (!page.records.empty()) ++cov.nonempty_urls;
      for (const auto& [table, row] : page.records) {
        records.emplace(in.form_host[i], table, row);
      }
    }
  }
  cov.records = records.size();
  size_t hidden = in.corpus.TotalDeepRows();
  report->Check(not_ok == 0, "every form's analysis succeeded (" +
                                 std::to_string(not_ok) + " failed)");
  report->Check(bad_host == 0,
                "every surfaced URL is a GET on its form's host (" +
                    std::to_string(bad_host) + " are not)");
  report->Check(over_cap == 0 && over_budget == 0,
                "no form exceeds its URL cap or probe budget (" +
                    std::to_string(over_cap) + " over cap, " +
                    std::to_string(over_budget) + " over budget)");
  report->Check(cov.unmatched == 0,
                "every record link on a surfaced page resolves to a row of "
                "its site's tables (" +
                    std::to_string(cov.unmatched) + " of " +
                    std::to_string(cov.links) + " do not)");
  report->Check(cov.records > 0 && cov.records <= hidden,
                "records covered " + std::to_string(cov.records) +
                    " is in (0, " + std::to_string(hidden) +
                    "] hidden rows");
  std::printf("coverage: %zu surfaced URLs, %zu list records, %zu say "
              "\"No results found\" (%.1f%%)\n",
              cov.urls, cov.nonempty_urls, cov.no_results,
              cov.urls == 0 ? 0.0 : 100.0 * cov.no_results / cov.urls);
  return cov;
}

/// The traced run's stage pass: the four core:: stage functions called
/// form by form on one thread through a fresh scheduler over the same
/// web, each stage a span under a "core.form" span.
struct StagePass {
  size_t forms = 0;  ///< GET forms analysed
  size_t mismatches = 0;
  size_t failures = 0;
  double probes_mine = 0, probes_search = 0, probes_total = 0;
  double templates_evaluated = 0, templates_informative = 0;
  double urls = 0;
};

StagePass RunStagePass(Inputs* in,
                       const std::vector<ds::crawler::FormOutcome>& driver,
                       Tracer* tracer) {
  StagePass pass;
  ds::net::ProbeScheduler scheduler(in->web.get());
  const ds::core::SurfacerOptions options;
  for (size_t i = 0; i < in->forms.size(); ++i) {
    const auto& form = in->forms[i];
    ScopedSpan form_span(tracer, "core.form");
    std::string scripts;
    if (auto page = scheduler.Fetch(form.page_url); page.ok()) {
      scripts = ds::html::ExtractScriptText(*ds::html::Parse(page->body));
    }
    ds::Result<ds::core::FormAnalysisContext> ctx = [&] {
      ScopedSpan span(tracer, "core.analyze_inputs");
      return ds::core::AnalyzeInputs(&scheduler, nullptr, options,
                                     form.page_url, form.form, scripts);
    }();
    if (!ctx.ok()) {
      ++pass.failures;
      continue;
    }
    if (ctx->result.skipped_post) {
      if (!driver[i].result.skipped_post) ++pass.mismatches;
      continue;
    }
    ++pass.forms;
    size_t p0 = ctx->prober->fetches();
    ds::Status s;
    {
      ScopedSpan span(tracer, "core.mine_candidates");
      s = ds::core::MineCandidates(&*ctx);
    }
    size_t p1 = ctx->prober->fetches();
    if (s.ok()) {
      ScopedSpan span(tracer, "core.search_templates");
      s = ds::core::SearchTemplates(&*ctx);
    }
    size_t p2 = ctx->prober->fetches();
    if (s.ok()) {
      ScopedSpan span(tracer, "core.emit_urls");
      s = ds::core::EmitUrls(&*ctx);
    }
    if (!s.ok()) {
      ++pass.failures;
      continue;
    }
    pass.probes_mine += static_cast<double>(p1 - p0);
    pass.probes_search += static_cast<double>(p2 - p1);
    pass.probes_total += static_cast<double>(ctx->result.probes_used);
    pass.templates_evaluated +=
        static_cast<double>(ctx->result.templates_evaluated);
    pass.templates_informative +=
        static_cast<double>(ctx->result.templates_informative);
    pass.urls += static_cast<double>(ctx->result.urls.size());
    std::set<std::string> staged, driven;
    for (const auto& u : ctx->result.urls) {
      staged.insert(u.url.ToCanonicalString());
    }
    for (const auto& u : driver[i].result.urls) {
      driven.insert(u.url.ToCanonicalString());
    }
    if (staged != driven) ++pass.mismatches;
  }
  return pass;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

int RunSurface(const Args& args, Tracer* tracer, Report* report,
               LayerMetrics* layers) {
  // Set-up builds the corpus, crawls it and wraps its sites; timed
  // several times, the last one kept.
  std::unique_ptr<Inputs> in;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.fingerprint_only ? 1 : kSetups); ++i) {
    double start = NowS();
    in = Setup(tracer);
    setup_s.push_back(NowS() - start);
    if (in == nullptr) {
      std::fprintf(stderr, "surface: set-up failed\n");
      return 2;
    }
  }
  Fingerprint fp = InputFingerprint(*in, args.seed);
  if (!CheckFingerprint(args, fp, report)) return 1;
  if (args.fingerprint_only) return 0;
  RssGrowth rss;
  rss.Start();
  std::printf("surface: %zu deep sites, %zu forms, %zu hidden rows, %zu "
              "driver threads\n",
              in->corpus.deep_sites.size(), in->forms.size(),
              in->corpus.TotalDeepRows(), Nproc());

  std::vector<Round> rounds;
  std::vector<Round> traced_rounds;
  if (!args.trace) {
    // Whole rounds until the time is up.
    double start = NowS();
    do {
      rounds.push_back(RunRound(in.get(), tracer,
                                RoundSeed(args.seed, rounds.size()), &rss));
      if (rounds.size() > 1) rounds.back().outcomes.clear();
    } while (NowS() - start < args.seconds);
  } else {
    // A warm-up round (its outcomes are checked below), then untraced and
    // traced rounds in turn for half the time, for the overhead; the
    // stage pass follows.
    tracer->set_enabled(false);
    rounds.push_back(
        RunRound(in.get(), tracer, RoundSeed(args.seed, 0), &rss));
    double start = NowS();
    do {
      size_t r = rounds.size() + traced_rounds.size();
      tracer->set_enabled(false);
      rounds.push_back(
          RunRound(in.get(), tracer, RoundSeed(args.seed, r), &rss));
      rounds.back().outcomes.clear();
      tracer->set_enabled(true);
      traced_rounds.push_back(
          RunRound(in.get(), tracer, RoundSeed(args.seed, r + 1), &rss));
    } while (NowS() - start < args.seconds / 2);
  }

  const Round& first = rounds.front();
  uint64_t forms = 0, failed = 0, skipped = 0;
  bool same_urls = true;
  for (const auto* set : {&rounds, &traced_rounds}) {
    for (const Round& r : *set) {
      forms += r.stats.forms_total;
      failed += r.stats.forms_failed;
      skipped += r.stats.forms_skipped_post;
      same_urls = same_urls && r.url_hash == first.url_hash;
    }
  }
  report->Ops("forms", forms - skipped, failed);
  std::printf("ops: %-14s %" PRIu64 " POST forms skipped by design\n", "forms",
              skipped);
  Coverage cov = CheckOutcomes(*in, first.outcomes, report);
  report->Check(same_urls, "every round surfaced the same URL set");
  std::printf("coverage: %zu \"No results found\" pages indexed (after "
              "duplicate suppression)\n",
              first.no_results_indexed);

  auto per_form = [&](double x, const Round& r) {
    return r.stats.forms_analyzed == 0
               ? 0.0
               : x / static_cast<double>(r.stats.forms_analyzed);
  };
  if (!args.trace) {
    // Throughput is forms (and ingested pages) over the wall-clock time
    // of all the run's rounds. A round of ~150 forms ends with a tail
    // where its slowest form (~1.5 s of a ~2 s round) runs alone, so one
    // round's rate swings +-20% with where the queue put that form; the
    // ~10 rounds of a run average that out. Each form's latency is its
    // median over the rounds, from its site's first request to its last
    // InsertBatch.
    std::vector<double> form_ms, requests;
    for (size_t i = 0; i < in->forms.size(); ++i) {
      std::vector<double> samples;
      for (const Round& r : rounds) {
        if (r.form_ms[i] >= 0) samples.push_back(r.form_ms[i]);
      }
      if (!samples.empty()) form_ms.push_back(Median(samples));
    }
    double wall_s = 0, analyzed = 0, pages = 0;
    std::printf("surface: %zu rounds of %zu forms; wall-clock forms/s per "
                "round",
                rounds.size(), form_ms.size());
    for (const Round& r : rounds) {
      requests.push_back(per_form(static_cast<double>(r.site_requests), r));
      wall_s += r.wall_s;
      analyzed += static_cast<double>(r.stats.forms_analyzed);
      pages += static_cast<double>(r.stats.pages_indexed);
      std::printf(" %.1f", r.stats.forms_analyzed / r.wall_s);
    }
    std::printf("; slowest form %.0f ms\n",
                form_ms.empty() ? 0.0
                                : *std::max_element(form_ms.begin(),
                                                    form_ms.end()));
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("ops_per_s", analyzed / wall_s, "1/s");
    report->Metric("p50_ms", Quantile(form_ms, 0.5), "ms");
    std::printf("latency: p99 %.1f ms over forms\n", Quantile(form_ms, 0.99));
    report->Metric("ingest_docs_per_s", pages / wall_s, "docs/s");
    report->Metric("requests_per_op", Median(requests), "count");
    report->Metric("results_per_op",
                   per_form(static_cast<double>(cov.records), first),
                   "count");
    report->Metric("index_bytes",
                   static_cast<double>(first.memory.total_bytes()), "bytes");
    report->Metric("peak_rss_mb", rss.PeakMb(), "MB");
    return 0;
  }

  // --- Traced run: per-layer metrics. ---
  std::vector<Span> driver_spans = tracer->Spans();
  StagePass pass = RunStagePass(in.get(), first.outcomes, tracer);
  std::vector<Span> all = tracer->Spans();
  std::vector<Span> stage_spans(all.begin() + driver_spans.size(), all.end());
  report->Check(pass.failures == 0 && pass.mismatches == 0,
                "stage-by-stage URL sets equal the driver's per-form "
                "outcomes (" +
                    std::to_string(pass.mismatches) + " differ, " +
                    std::to_string(pass.failures) + " failed)");

  const Round& tr = traced_rounds.back();
  double gets = static_cast<double>(std::max<size_t>(1, pass.forms));
  auto stage_ms = [&](const char* name) {
    return Sum(DurationsMs(stage_spans, name)) / gets;
  };
  LayerMetrics& m = *layers;
  m["core.analyze_inputs_ms"] = stage_ms("core.analyze_inputs");
  m["core.mine_candidates_ms"] = stage_ms("core.mine_candidates");
  m["core.search_templates_ms"] = stage_ms("core.search_templates");
  m["core.emit_urls_ms"] = stage_ms("core.emit_urls");
  m["core.mine_candidates_probes"] = pass.probes_mine / gets;
  m["core.search_templates_probes"] = pass.probes_search / gets;
  m["core.probes_per_form"] = pass.probes_total / gets;
  m["core.templates_evaluated"] = pass.templates_evaluated / gets;
  m["core.informative_ratio"] =
      pass.templates_evaluated == 0
          ? 0.0
          : pass.templates_informative / pass.templates_evaluated;
  m["core.urls_per_form"] = pass.urls / gets;
  m["core.nonempty_url_ratio"] =
      cov.urls == 0 ? 0.0
                    : static_cast<double>(cov.nonempty_urls) / cov.urls;

  std::vector<double> traced_form_ms;
  for (const Round& r : traced_rounds) {
    for (double ms : r.form_ms) {
      if (ms >= 0) traced_form_ms.push_back(ms);
    }
  }
  double traced_forms = 0;
  double traced_wall = 0;
  for (const Round& r : traced_rounds) {
    traced_forms += static_cast<double>(r.stats.forms_analyzed);
    traced_wall += r.wall_s;
  }
  m["crawler.form_ms.p50"] = Quantile(traced_form_ms, 0.5);
  m["crawler.form_ms.p90"] = Quantile(traced_form_ms, 0.9);
  m["crawler.ingest_ms"] =
      Sum(DurationsMs(driver_spans, "index.insert_batch")) / traced_forms;
  m["crawler.new_doc_ratio"] =
      tr.docs_offered == 0
          ? 0.0
          : static_cast<double>(tr.docs_added) / tr.docs_offered;
  m["crawler.records_covered"] = static_cast<double>(cov.records);

  const auto& sched = tr.stats.scheduler;
  m["net.site_ms"] = Mean(DurationsMs(driver_spans, "net.site"));
  m["net.site_requests_per_form"] =
      per_form(static_cast<double>(tr.site_requests), tr);
  m["net.probe_cache_hit_rate"] = sched.HitRate();
  m["net.coalesced"] = static_cast<double>(sched.coalesced);
  m["net.evictions"] = static_cast<double>(sched.evictions);
  m["net.refetch_ratio"] =
      tr.distinct_urls == 0
          ? 0.0
          : static_cast<double>(tr.site_requests) / tr.distinct_urls;

  auto insert_ms = DurationsMs(driver_spans, "index.insert_batch");
  m["index.insert_batch_ms.p50"] = Quantile(insert_ms, 0.5);
  m["index.insert_batch_ms.p99"] = Quantile(insert_ms, 0.99);
  m["index.bytes_per_posting"] = tr.memory.bytes_per_posting();

  // Unattributed: the stage pass's per-form time outside the four
  // stages (page fetch, script extraction, glue).
  double form_total = Sum(DurationsMs(stage_spans, "core.form"));
  double in_stages = 0;
  for (const char* s : {"core.analyze_inputs", "core.mine_candidates",
                        "core.search_templates", "core.emit_urls"}) {
    in_stages += Sum(DurationsMs(stage_spans, s));
  }
  m["trace.unattributed_share"] =
      form_total == 0 ? 0.0 : (form_total - in_stages) / form_total;
  // Overhead on the forms' mean latency: a round's wall time swings with
  // where its slowest form lands in the queue, a form's latency does not.
  std::vector<double> untraced_form_ms;
  for (size_t i = 1; i < rounds.size(); ++i) {
    for (double ms : rounds[i].form_ms) {
      if (ms >= 0) untraced_form_ms.push_back(ms);
    }
  }
  double traced_mean = Mean(traced_form_ms);
  double untraced_mean = Mean(untraced_form_ms);
  m["trace.overhead_ratio"] =
      untraced_mean == 0 ? 0.0 : traced_mean / untraced_mean - 1.0;
  std::printf("layers: per form %.2f ms in core stages of %.2f ms (stage "
              "pass); driver form latency %.2f ms traced vs %.2f ms "
              "untraced; round %.3f s traced vs %.3f s untraced\n",
              in_stages / gets, form_total / gets, traced_mean, untraced_mean,
              traced_wall / traced_rounds.size(), rounds.back().wall_s);
  return 0;
}

}  // namespace perfbench
