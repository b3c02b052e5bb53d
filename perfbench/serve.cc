// The serving workloads.
//
// serve_longtail: read-only keyword traffic from querylog::QueryStream
// over serve::Engine -> 4-shard ShardedIndex holding ~57k entity
// documents. At least 95% of the stream is distinct, so the result cache
// is bypassed and DAAT scoring, block-max skipping and the top-k merge
// carry every query. The run bulk-loads the index (ingest rate), then
// drives a closed loop with one client per hardware thread (throughput
// and per-query latency). Latency is not taken from an open loop here:
// at ~0.3 ms per query, an open loop at 2000 queries/s read this
// machine's timer wake-ups (sleep lateness p99 0.4-1.6 ms) more than
// the index, and its p99 swung 0.8-4.4 ms between runs.
//
// serve_churn: Zipf-repetitive traffic (traffic::BuildZipfQueryStream)
// over serve::Engine -> remote::Coordinator, 2 shards x 2 replicas on a
// LoopbackTransport with no faults, as an open loop at a fixed offered
// rate. One writer meanwhile ingests a second corpus's documents,
// prepared in set-up, through replicated InsertBatch on a fixed pace.
// The result cache absorbs most reads (checked: over half of them hit),
// every batch invalidates it, and the RPC, queue and replicated-write
// paths carry the rest.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "crawler/surfacing_driver.h"
#include "index/sharded_index.h"
#include "querylog/query_stream.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "traffic/traffic_gen.h"
#include "workloads.h"

namespace perfbench {

namespace ds = deepsurf;
using ds::index::SearchHit;

namespace {

constexpr int kLongtailSetups = 3;  ///< ~3 s each
constexpr int kChurnSetups = 10;   ///< ~0.3 s each
constexpr size_t kSampleQueries = 200;  ///< checked against exhaustive
constexpr size_t kLoadBatch = 256;      ///< bulk-load batch size

// The corpora are BuildCorpus's default ones (its default seed), the same
// for every --seed; --seed drives the traffic: the query streams, the
// arrival schedules. With the corpus drawn from --seed too, the few
// largest sites (Zipf-sized) changed from seed to seed and moved
// latency by ~30% and index size by ~8%, more than any bound holds.
//
// serve_longtail: 500 deep sites with up to 7000 rows give ~57k entity
// documents, where block-max pruning skips blocks (at ~6k nothing is
// skipped).
constexpr size_t kLongtailSites = 500;
constexpr size_t kLongtailMaxRows = 7000;
/// Queries generated per second of run: above the throughput of a
/// 4-thread machine, so the loop runs out of time before it runs out of
/// queries.
constexpr double kLongtailQueriesPerSecond = 16000;
constexpr int kLoads = 5;  ///< bulk loads timed; the last one is served

// serve_churn: a ~6k-document base corpus and a 1500-query Zipf pool.
// The offered rate is the paper's: surfaced deep-web pages answer more
// than 1000 queries per second. The writer keeps the ingest-to-query
// ratio of the repository's bench_traffic churn phase (112 documents
// surfaced while 1577 queries were served, BENCH_traffic.json) and sends
// them in batches of the SurfacingDriver's default index_batch_size (64),
// so one batch every ~0.9 s.
constexpr size_t kChurnSites = 40;
constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;
constexpr double kChurnOfferedQps = 1000;
constexpr double kChurnDocsPerQuery = 112.0 / 1577.0;
/// Popularity skew of the query draws: bench_traffic's flash-crowd
/// exponent. At the stream's default 1.0 the cache answered ~62% of
/// reads, so the median query sat at the edge between hits and misses
/// and p50 swung 0.014-0.116 ms between runs.
constexpr double kChurnZipfS = 1.35;
/// Share of the open loop's reads the result cache must answer.
constexpr double kChurnMinHitRate = 0.5;

size_t ChurnBatch() {
  return ds::crawler::SurfacingDriverOptions().index_batch_size;
}

double ChurnBatchPeriodS() {
  return static_cast<double>(ChurnBatch()) /
         (kChurnDocsPerQuery * kChurnOfferedQps);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Share of the engine's lookups between two snapshots that hit its
/// result cache.
double HitRate(const ds::serve::EngineStats& a,
               const ds::serve::EngineStats& b) {
  uint64_t lookups = b.queries - a.queries;
  return lookups == 0 ? 0.0
                      : static_cast<double>(b.cache_hits - a.cache_hits) /
                            static_cast<double>(lookups);
}

/// The served lists of a query loop, indexed like its query list, in
/// one block allocated (and so touched) before the memory baseline:
/// storing them adds nothing to the program's measured memory.
class HitStore {
 public:
  explicit HitStore(size_t queries)
      : hits_(queries * kTopK), size_(queries, 0) {}

  void Put(size_t i, const std::vector<SearchHit>& hits) {
    size_[i] = static_cast<uint32_t>(hits.size());
    if (hits.size() > kTopK) {
      // Never expected: kept whole so the checks see the fault.
      std::lock_guard<std::mutex> lock(mu_);
      overflow_[i] = hits;
      return;
    }
    std::copy(hits.begin(), hits.end(), hits_.begin() + i * kTopK);
  }

  std::vector<SearchHit> Get(size_t i) const {
    if (size_[i] > kTopK) return overflow_.at(i);
    auto begin = hits_.begin() + i * kTopK;
    return std::vector<SearchHit>(begin, begin + size_[i]);
  }

 private:
  std::vector<SearchHit> hits_;
  std::vector<uint32_t> size_;
  std::mutex mu_;
  std::map<size_t, std::vector<SearchHit>> overflow_;
};

/// What a query loop did.
struct Loop {
  size_t completed = 0;
  size_t failed = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;
  /// Per latency: seconds since the loop began of its completion (closed
  /// loop) or of its scheduled arrival (open loop).
  std::vector<double> at_s;
  std::vector<double> late_ms;  ///< open loop: send time - scheduled time
};

// Figures are medians over one-second windows: on a shared machine a
// burst of outside load for a second or two moves one or two windows,
// not the run's figure.
constexpr double kWindowS = 1.0;

/// Median over the loop's windows of the q-quantile of each window's
/// latencies (windows with at least 1000 samples; all samples if none).
double WindowedQuantile(const Loop& loop, double q) {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < loop.latency_ms.size(); ++i) {
    windows[static_cast<int64_t>(loop.at_s[i] / kWindowS)].push_back(
        loop.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (auto& [w, v] : windows) {
    if (v.size() >= 1000) per_window.push_back(Quantile(std::move(v), q));
  }
  return per_window.empty() ? Quantile(loop.latency_ms, q)
                            : Median(per_window);
}

/// Median over the loop's full windows of completions per second.
double WindowedRate(const Loop& loop) {
  size_t full = static_cast<size_t>(loop.wall_s / kWindowS);
  if (full == 0) return static_cast<double>(loop.completed) / loop.wall_s;
  std::vector<double> count(full, 0.0);
  for (double t : loop.at_s) {
    size_t w = static_cast<size_t>(t / kWindowS);
    if (w < full) count[w] += 1.0;
  }
  for (double& c : count) c /= kWindowS;
  return Median(count);
}

/// One served query under client and engine spans. The client span of an
/// open-loop query starts at its scheduled arrival.
ds::serve::ServeResult Serve(ds::serve::Engine* engine, const std::string& q,
                             Tracer* tracer, double late_s) {
  ScopedSpan client(tracer, "client.query");
  if (tracer->enabled()) client.set_start_ms(tracer->NowMs() - late_s * 1e3);
  ScopedSpan span(tracer, "serve.engine");
  return engine->Search(q, kTopK);
}

/// Closed loop: `clients` threads each send their next query as soon as
/// the previous one returns, until `seconds` pass or the queries run out.
Loop ClosedLoop(ds::serve::Engine* engine,
                const std::vector<std::string>& queries, size_t begin,
                size_t clients, double seconds, Tracer* tracer,
                HitStore* hits) {
  Loop loop;
  std::atomic<size_t> cursor{begin};
  std::atomic<size_t> failed{0};
  double start = NowS();
  double stop = start + seconds;
  std::vector<std::vector<double>> latency(clients), at(clients);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (;;) {
        double t0 = NowS();
        if (t0 >= stop) return;
        size_t i = cursor.fetch_add(1);
        if (i >= queries.size()) return;
        auto result = Serve(engine, queries[i], tracer, 0.0);
        double t1 = NowS();
        latency[c].push_back((t1 - t0) * 1e3);
        at[c].push_back(t1 - start);
        if (!result.status.ok()) failed.fetch_add(1);
        hits->Put(i, result.hits);
      }
    });
  }
  for (auto& t : pool) t.join();
  loop.wall_s = NowS() - start;
  for (size_t c = 0; c < clients; ++c) {
    loop.latency_ms.insert(loop.latency_ms.end(), latency[c].begin(),
                           latency[c].end());
    loop.at_s.insert(loop.at_s.end(), at[c].begin(), at[c].end());
  }
  loop.completed = loop.latency_ms.size();
  loop.failed = failed.load();
  return loop;
}

/// Open loop: arrival i is due at start + arrival_s[i], whatever the
/// system is doing; `clients` threads take arrivals in order and each
/// query is timed from when it was due.
Loop OpenLoop(ds::serve::Engine* engine,
              const std::vector<const std::string*>& queries,
              const std::vector<double>& arrival_s, size_t clients,
              Tracer* tracer, HitStore* hits) {
  Loop loop;
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> failed{0};
  double start = NowS() + 0.01;
  std::vector<std::vector<double>> latency(clients), late(clients),
      at(clients);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (;;) {
        size_t i = cursor.fetch_add(1);
        if (i >= queries.size()) return;
        double due = start + arrival_s[i];
        SleepUntil(due);
        double sent = NowS();
        auto result = Serve(engine, *queries[i], tracer, sent - due);
        latency[c].push_back((NowS() - due) * 1e3);
        late[c].push_back((sent - due) * 1e3);
        at[c].push_back(arrival_s[i]);
        if (!result.status.ok()) failed.fetch_add(1);
        hits->Put(i, result.hits);
      }
    });
  }
  for (auto& t : pool) t.join();
  loop.wall_s = NowS() - start;
  for (size_t c = 0; c < clients; ++c) {
    loop.latency_ms.insert(loop.latency_ms.end(), latency[c].begin(),
                           latency[c].end());
    loop.late_ms.insert(loop.late_ms.end(), late[c].begin(), late[c].end());
    loop.at_s.insert(loop.at_s.end(), at[c].begin(), at[c].end());
  }
  loop.completed = loop.latency_ms.size();
  loop.failed = failed.load();
  return loop;
}

/// Poisson arrival offsets at `qps` for `seconds`, from the program's
/// open-loop schedule generator.
std::vector<double> Arrivals(double qps, double seconds, uint64_t seed) {
  ds::traffic::PhaseSpec phase;
  phase.name = "steady";
  phase.duration_s = seconds;
  phase.qps_start = qps;
  phase.qps_end = qps;
  std::vector<double> out;
  for (const auto& a : ds::traffic::GenerateArrivals({phase}, 1, seed)) {
    out.push_back(a.time_s);
  }
  return out;
}

void PrintLateness(const Loop& loop) {
  std::printf("open loop: %zu arrivals, generator late p50 %.3f ms, p99 "
              "%.3f ms, max %.3f ms\n",
              loop.late_ms.size(), Quantile(loop.late_ms, 0.5),
              Quantile(loop.late_ms, 0.99),
              loop.late_ms.empty()
                  ? 0.0
                  : *std::max_element(loop.late_ms.begin(),
                                      loop.late_ms.end()));
}

/// The tail is printed, not reported: on a 4-vCPU VM the windowed p99
/// of serve_churn spread 0.39 (IQR / median) over ten seeds, wider than
/// any regression bound can be. Per-layer p99s stay in the traced run.
void PrintTail(const Loop& loop) {
  std::printf("latency: p99 %.4f ms (median over 1 s windows), %.4f ms "
              "over the run, %zu samples\n",
              WindowedQuantile(loop, 0.99), Quantile(loop.latency_ms, 0.99),
              loop.latency_ms.size());
}

using ServedList =
    std::vector<std::pair<const std::string*, std::vector<SearchHit>>>;

double MeanHits(const ServedList& served) {
  double n = 0;
  for (const auto& entry : served) n += static_cast<double>(entry.second.size());
  return served.empty() ? 0.0 : n / static_cast<double>(served.size());
}

/// Checks every served list, and the first kSampleQueries of `sample`
/// (served after the index settled) against the exhaustive reference.
void CheckServed(const ServedListChecker& checker, const ServedList& served,
                 const ds::index::InvertedIndex& reference,
                 const ServedList& sample, Report* report) {
  size_t bad = 0;
  std::string first;
  for (const auto& [q, hits] : served) {
    std::string fault = checker.Check(*q, hits, kTopK);
    if (!fault.empty() && bad++ == 0) first = fault;
  }
  report->Check(bad == 0,
                "every served list is ordered, within k and on topic (" +
                    std::to_string(bad) + " of " +
                    std::to_string(served.size()) + " are not" +
                    (first.empty() ? "" : "; first: " + first) + ")");
  size_t differ = 0;
  for (const auto& [q, hits] : sample) {
    if (!SameHits(hits, reference.Search(*q, kTopK))) ++differ;
  }
  report->Check(differ == 0 && !sample.empty(),
                std::to_string(sample.size()) +
                    " sampled queries match an exhaustive InvertedIndex scan "
                    "to score bits and tie order (" +
                    std::to_string(differ) + " differ)");
}

/// Fingerprint of the documents of `parts`, in order, and the queries.
Fingerprint DocsFingerprint(
    const std::vector<const std::vector<ds::index::Document>*>& parts,
    const std::vector<std::string>& queries) {
  Fingerprint fp;
  Hasher h;
  for (const auto* part : parts) {
    for (const auto& d : *part) {
      h.Add(d.url);
      h.Add(d.title);
      h.Add(d.body);
    }
    fp.docs += part->size();
  }
  for (const auto& q : queries) h.Add(q);
  fp.queries = queries.size();
  fp.hash = h.value();
  return fp;
}

// --- serve_longtail ---

struct LongtailInputs {
  /// The documents, in load order, in kLoadBatch batches.
  std::vector<std::vector<ds::index::Document>> batches;
  std::vector<std::string> queries;

  const ds::index::Document& doc(size_t i) const {
    return batches[i / kLoadBatch][i % kLoadBatch];
  }
};

LongtailInputs LongtailSetup(const Args& args) {
  LongtailInputs in;
  ds::synthweb::CorpusOptions co;
  co.num_deep_sites = kLongtailSites;
  co.max_rows = kLongtailMaxRows;
  auto corpus = ds::synthweb::BuildCorpus(co);
  std::vector<ds::index::Document> docs =
      ds::synthweb::EntityDocuments(corpus);
  for (size_t b = 0; b < docs.size(); b += kLoadBatch) {
    in.batches.emplace_back(
        std::make_move_iterator(docs.begin() + b),
        std::make_move_iterator(docs.begin() +
                                std::min(docs.size(), b + kLoadBatch)));
  }

  // Three to four terms per query and a flatter popularity than the
  // default 0.95: with two-term queries, or with the default exponent
  // over ~200k draws, the same record words recur often enough to break
  // the 95%-distinct shape.
  ds::querylog::QueryStreamOptions qo;
  qo.min_terms = 3;
  qo.zipf_exponent = 0.8;
  qo.seed = 104729 * args.seed + 3;
  ds::querylog::QueryStream stream(&corpus, qo);
  size_t total = static_cast<size_t>(kLongtailQueriesPerSecond * args.seconds);
  in.queries.reserve(total);
  for (size_t i = 0; i < total; ++i) in.queries.push_back(stream.Next().text);
  return in;
}

}  // namespace

int RunServeLongtail(const Args& args, Tracer* tracer, Report* report,
                     LayerMetrics* layers) {
  const size_t clients = Nproc();
  LongtailInputs in;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.fingerprint_only ? 1 : kLongtailSetups); ++i) {
    double start = NowS();
    in = LongtailSetup(args);
    setup_s.push_back(NowS() - start);
  }
  std::vector<const std::vector<ds::index::Document>*> parts;
  size_t num_docs = 0;
  for (const auto& batch : in.batches) {
    parts.push_back(&batch);
    num_docs += batch.size();
  }
  if (!CheckFingerprint(args, DocsFingerprint(parts, in.queries), report)) {
    return 1;
  }
  if (args.fingerprint_only) return 0;
  std::unordered_set<std::string> distinct(in.queries.begin(),
                                           in.queries.end());
  double distinct_share =
      static_cast<double>(distinct.size()) / in.queries.size();
  report->Check(distinct_share >= 0.95,
                "query stream is at least 95% distinct (" +
                    std::to_string(distinct_share) + ")");
  std::printf("serve_longtail: %zu documents, %zu queries, %zu clients\n",
              num_docs, in.queries.size(), clients);
  HitStore hits(in.queries.size());
  RssGrowth rss;
  rss.Start();

  // Bulk load, timed kLoads times into fresh indexes; the last is served.
  std::unique_ptr<ds::index::ShardedIndex> sharded;
  std::unique_ptr<TracedIndex> traced;
  ds::index::WritableIndex* index = nullptr;
  std::vector<size_t> doc_of_id;
  uint64_t batches = 0, failed_batches = 0;
  std::vector<double> load_rate;
  for (int l = 0; l < kLoads; ++l) {
    traced.reset();
    sharded = std::make_unique<ds::index::ShardedIndex>();
    traced = std::make_unique<TracedIndex>(sharded.get(), tracer,
                                           "index.search", "index.insert_batch");
    index = args.trace ? static_cast<ds::index::WritableIndex*>(traced.get())
                       : sharded.get();
    std::vector<std::vector<bool>> newly(in.batches.size());
    double start = NowS();
    for (size_t b = 0; b < in.batches.size(); ++b) {
      ++batches;
      if (!index->InsertBatch(in.batches[b], &newly[b]).ok()) ++failed_batches;
    }
    double load_s = NowS() - start;
    rss.Sample();
    doc_of_id.clear();
    for (size_t b = 0; b < newly.size(); ++b) {
      for (size_t j = 0; j < newly[b].size(); ++j) {
        if (newly[b][j]) doc_of_id.push_back(b * kLoadBatch + j);
      }
    }
    load_rate.push_back(static_cast<double>(doc_of_id.size()) / load_s);
  }

  ds::serve::Engine engine(index);
  auto search0 = sharded->search_stats();
  auto engine0 = engine.stats();
  // The traced run closes the loop twice for half the time each: first
  // with recording paused, for the overhead.
  Loop untraced;
  if (args.trace) {
    tracer->set_enabled(false);
    untraced = ClosedLoop(&engine, in.queries, 0, clients, args.seconds / 2,
                          tracer, &hits);
    tracer->set_enabled(true);
  }
  size_t begin = untraced.completed;
  Loop closed = ClosedLoop(&engine, in.queries, begin, clients,
                           args.trace ? args.seconds / 2 : args.seconds,
                           tracer, &hits);
  rss.Sample();
  auto search1 = sharded->search_stats();
  auto engine1 = engine.stats();
  size_t end = begin + closed.completed;

  uint64_t served = untraced.completed + closed.completed;
  report->Ops("ingest_batches", batches, failed_batches);
  report->Ops("queries", served, untraced.failed + closed.failed);
  if (end >= in.queries.size()) {
    std::printf("note: the closed loop used up its %zu queries\n",
                in.queries.size());
  }

  ServedListChecker checker;
  for (size_t id = 0; id < doc_of_id.size(); ++id) {
    const auto& d = in.doc(doc_of_id[id]);
    checker.SetDoc(static_cast<ds::index::DocId>(id), d.title + " " + d.body);
  }
  ServedList all, sample;
  for (size_t i = 0; i < end; ++i) all.emplace_back(&in.queries[i], hits.Get(i));
  // The index is static while serving, so any served query can be
  // compared with the reference; take the first ones.
  sample.assign(all.begin(),
                all.begin() + std::min(all.size(), kSampleQueries));
  std::vector<ds::index::Document> docs;
  for (const auto& batch : in.batches) {
    docs.insert(docs.end(), batch.begin(), batch.end());
  }
  CheckServed(checker, all, *ExhaustiveIndex(docs), sample, report);

  double queries = static_cast<double>(std::max<uint64_t>(1, served));
  auto per_query = [&](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b) / queries;
  };
  auto memory = sharded->MemoryUsage();
  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("ops_per_s", WindowedRate(closed), "1/s");
    report->Metric("p50_ms", WindowedQuantile(closed, 0.5), "ms");
    PrintTail(closed);
    report->Metric("ingest_docs_per_s", Median(load_rate), "docs/s");
    report->Metric("requests_per_op",
                   per_query(search1.queries, search0.queries), "count");
    report->Metric("results_per_op", MeanHits(all), "count");
    report->Metric("index_bytes", static_cast<double>(memory.total_bytes()),
                   "bytes");
    report->Metric("peak_rss_mb", rss.PeakMb(), "MB");
    return 0;
  }

  std::vector<Span> spans = tracer->Spans();
  LayerMetrics& m = *layers;
  auto search_ms = DurationsMs(spans, "index.search");
  m["index.search_ms.p50"] = Quantile(search_ms, 0.5);
  m["index.search_ms.p99"] = Quantile(search_ms, 0.99);
  m["index.blocks_decoded_per_query"] =
      per_query(search1.blocks_decoded, search0.blocks_decoded);
  m["index.blocks_skipped_per_query"] =
      per_query(search1.blocks_skipped, search0.blocks_skipped);
  m["index.decode_cache_hits_per_query"] =
      per_query(search1.decode_cache_hits, search0.decode_cache_hits);
  auto insert_ms = DurationsMs(spans, "index.insert_batch");
  m["index.insert_batch_ms.p50"] = Quantile(insert_ms, 0.5);
  m["index.insert_batch_ms.p99"] = Quantile(insert_ms, 0.99);
  m["index.bytes_per_posting"] = memory.bytes_per_posting();
  m["serve.cache_hit_rate"] = HitRate(engine0, engine1);
  auto self_ms = SelfMs(spans, "serve.engine");
  m["serve.engine_self_ms.p50"] = Quantile(self_ms, 0.5);
  m["serve.engine_self_ms.p99"] = Quantile(self_ms, 0.99);
  m["serve.invalidations_per_doc"] = 0.0;  // no ingest while serving
  double client_ms = Sum(DurationsMs(spans, "client.query"));
  double engine_ms = Sum(DurationsMs(spans, "serve.engine"));
  m["trace.unattributed_share"] =
      client_ms == 0 ? 0.0 : (client_ms - engine_ms) / client_ms;
  double untraced_qps = untraced.completed / untraced.wall_s;
  double traced_qps = closed.completed / closed.wall_s;
  m["trace.overhead_ratio"] = untraced_qps / traced_qps - 1.0;
  std::printf("layers: per query %.4f ms engine self + %.4f ms index of "
              "%.4f ms at the client; %.0f qps traced vs %.0f untraced\n",
              Mean(self_ms), Mean(search_ms),
              client_ms / std::max<size_t>(1, closed.completed), traced_qps,
              untraced_qps);
  return 0;
}

namespace {

// --- serve_churn ---

struct ChurnInputs {
  std::vector<ds::index::Document> base_docs;
  std::vector<ds::index::Document> ingest_docs;  ///< ChurnBatch() per batch
  ds::traffic::ZipfQueryStream stream;           ///< one query per arrival
  std::vector<double> arrivals;
  size_t batches = 0;
};

ChurnInputs ChurnSetupInputs(const Args& args, double seconds) {
  ChurnInputs in;
  ds::synthweb::CorpusOptions co;
  co.num_deep_sites = kChurnSites;
  auto corpus = ds::synthweb::BuildCorpus(co);
  in.base_docs = ds::synthweb::EntityDocuments(corpus);

  in.batches = static_cast<size_t>(seconds / ChurnBatchPeriodS());
  size_t needed = in.batches * ChurnBatch();
  // A second corpus of equal-sized sites, large enough for every batch.
  ds::synthweb::CorpusOptions io;
  io.min_rows = 120;
  io.max_rows = 120;
  io.num_deep_sites = needed / 120 + 2;
  io.seed = co.seed + 1;
  auto ingest = ds::synthweb::BuildCorpus(io);
  in.ingest_docs = ds::synthweb::EntityDocuments(ingest);
  for (auto& d : in.ingest_docs) d.url += "/churn";
  in.ingest_docs.resize(std::min(in.ingest_docs.size(), needed));

  in.arrivals = Arrivals(kChurnOfferedQps, seconds, args.seed);
  ds::traffic::ZipfStreamOptions zo;
  zo.total = in.arrivals.size();
  zo.zipf_s = kChurnZipfS;
  zo.pool_seed = 3001 * args.seed + 7;
  zo.draw_seed = 3001 * args.seed + 13;
  in.stream = ds::traffic::BuildZipfQueryStream(corpus, zo);
  return in;
}

/// The serving stack: engine -> recorder -> [traced index] ->
/// coordinator -> [traced transport] -> loopback grid. The bracketed
/// decorators exist in the traced run only. Members are destroyed in
/// reverse order, callers first.
struct Cluster {
  std::unique_ptr<ds::remote::LoopbackTransport> loopback;
  std::unique_ptr<TracedTransport> traced_transport;
  std::unique_ptr<ds::remote::Coordinator> coordinator;
  std::unique_ptr<TracedIndex> traced_index;
  std::unique_ptr<ds::traffic::RecordingWritableIndex> recorder;
  std::unique_ptr<ds::serve::Engine> engine;
  uint64_t load_failures = 0;
};

std::unique_ptr<Cluster> BuildCluster(const ChurnInputs& in, bool traced,
                                      Tracer* tracer) {
  auto c = std::make_unique<Cluster>();
  // Pools sized to the machine: one worker per server and one fan-out
  // thread per hardware thread. The defaults (2 workers x 4 servers + 8
  // fan-out threads) put 20 threads on 4 and made batch times swing 2x
  // between runs.
  ds::remote::ShardServerOptions server;
  server.num_workers = std::max<size_t>(1, Nproc() / (kShards * kReplicas));
  c->loopback = std::make_unique<ds::remote::LoopbackTransport>(
      kShards, kReplicas, server);
  ds::remote::Transport* transport = c->loopback.get();
  if (traced) {
    c->traced_transport = std::make_unique<TracedTransport>(transport, tracer);
    transport = c->traced_transport.get();
  }
  ds::remote::CoordinatorOptions coordinator;
  coordinator.fanout_threads = Nproc();
  c->coordinator =
      std::make_unique<ds::remote::Coordinator>(transport, coordinator);
  ds::index::WritableIndex* index = c->coordinator.get();
  if (traced) {
    c->traced_index = std::make_unique<TracedIndex>(
        index, tracer, "remote.search", "remote.ingest_batch");
    index = c->traced_index.get();
  }
  c->recorder = std::make_unique<ds::traffic::RecordingWritableIndex>(index);
  bool was = tracer->enabled();
  tracer->set_enabled(false);
  for (size_t b = 0; b < in.base_docs.size(); b += kLoadBatch) {
    std::vector<ds::index::Document> batch(
        in.base_docs.begin() + b,
        in.base_docs.begin() + std::min(in.base_docs.size(), b + kLoadBatch));
    if (!c->recorder->InsertBatch(batch).ok()) ++c->load_failures;
  }
  tracer->set_enabled(was);
  c->engine = std::make_unique<ds::serve::Engine>(c->recorder.get());
  return c;
}

/// Merged queue-wait histogram of every shard server.
ds::obs::HistogramSnapshot QueueWait(ds::remote::LoopbackTransport* grid) {
  ds::obs::HistogramSnapshot merged;
  for (size_t s = 0; s < grid->num_shards(); ++s) {
    for (size_t r = 0; r < grid->num_replicas(); ++r) {
      auto snap = grid->server(s, r).metrics()->Snapshot();
      auto it = snap.histograms.find("shard.queue_wait_ms");
      if (it == snap.histograms.end()) continue;
      const auto& h = it->second;
      if (merged.counts.empty()) {
        merged = h;
        continue;
      }
      for (size_t i = 0; i < h.counts.size() && i < merged.counts.size();
           ++i) {
        merged.counts[i] += h.counts[i];
      }
      merged.total += h.total;
      merged.sum_ms += h.sum_ms;
    }
  }
  return merged;
}

ds::obs::HistogramSnapshot Minus(ds::obs::HistogramSnapshot a,
                                 const ds::obs::HistogramSnapshot& b) {
  for (size_t i = 0; i < a.counts.size() && i < b.counts.size(); ++i) {
    a.counts[i] -= b.counts[i];
  }
  a.total -= b.total;
  a.sum_ms -= b.sum_ms;
  return a;
}

/// One measured window: the open loop plus the paced writer.
struct ChurnWindow {
  Loop loop;
  std::vector<double> batch_ms;
  uint64_t docs_added = 0;
  uint64_t failed_batches = 0;
  ds::serve::EngineStats engine0, engine1;
  ds::remote::CoordinatorStats coord0, coord1;
};

ChurnWindow RunChurnWindow(const ChurnInputs& in, Cluster* c, size_t clients,
                           Tracer* tracer, HitStore* hits, RssGrowth* rss) {
  ChurnWindow w;
  std::vector<const std::string*> queries;
  for (const auto& q : in.stream.queries) queries.push_back(&q);
  w.engine0 = c->engine->stats();
  w.coord0 = c->coordinator->stats();
  double start = NowS();
  std::thread writer([&] {
    for (size_t b = 0; b < in.batches; ++b) {
      SleepUntil(start + static_cast<double>(b) * ChurnBatchPeriodS());
      size_t lo = b * ChurnBatch();
      if (lo >= in.ingest_docs.size()) break;
      std::vector<ds::index::Document> batch(
          in.ingest_docs.begin() + lo,
          in.ingest_docs.begin() +
              std::min(in.ingest_docs.size(), lo + ChurnBatch()));
      double t0 = NowS();
      auto added = c->recorder->InsertBatch(batch);
      w.batch_ms.push_back((NowS() - t0) * 1e3);
      rss->Sample();
      if (added.ok()) {
        w.docs_added += *added;
      } else {
        ++w.failed_batches;
      }
    }
  });
  w.loop = OpenLoop(c->engine.get(), queries, in.arrivals, clients, tracer,
                    hits);
  writer.join();
  rss->Sample();
  w.engine1 = c->engine->stats();
  w.coord1 = c->coordinator->stats();
  return w;
}

}  // namespace

int RunServeChurn(const Args& args, Tracer* tracer, Report* report,
                  LayerMetrics* layers) {
  const size_t clients = std::max<size_t>(1, Nproc() - 1);  // + the writer
  // The traced run measures two windows of half the time each: one with
  // recording paused, for the overhead, then the traced one.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  ChurnInputs in;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<HitStore> hits;
  RssGrowth rss;
  // Set-up is the inputs plus the loaded cluster. The memory baseline is
  // read between the two, outside the timing. The further set-ups timed
  // for setup_s run after the measurement: the heap their clusters' pool
  // threads leave behind made the baseline of a later cluster swing by
  // a third.
  std::vector<double> setup_s;
  double start = NowS();
  in = ChurnSetupInputs(args, args.seconds);
  double inputs_s = NowS() - start;
  if (!args.fingerprint_only) {
    hits = std::make_unique<HitStore>(in.arrivals.size());
    rss.Start();
    start = NowS();
    cluster = BuildCluster(in, args.trace, tracer);
    setup_s.push_back(inputs_s + NowS() - start);
    rss.Sample();
  }
  if (!CheckFingerprint(args,
                        DocsFingerprint({&in.base_docs, &in.ingest_docs},
                                        in.stream.queries),
                        report)) {
    return 1;
  }
  if (args.fingerprint_only) return 0;
  std::unordered_map<std::string, size_t> draws;
  size_t top = 0;
  for (const auto& q : in.stream.queries) top = std::max(top, ++draws[q]);
  double distinct_share =
      static_cast<double>(draws.size()) / in.stream.queries.size();
  double top_share = static_cast<double>(top) / in.stream.queries.size();
  report->Check(distinct_share <= 0.5 && top_share >= 0.01,
                "query stream is Zipf-repetitive (distinct share " +
                    std::to_string(distinct_share) + ", top query share " +
                    std::to_string(top_share) + ")");
  report->Check(in.ingest_docs.size() == in.batches * ChurnBatch(),
                "the second corpus fills every ingest batch");
  if (args.trace) {
    // Each window replays the first half of the inputs.
    in.batches = static_cast<size_t>(window_s / ChurnBatchPeriodS());
    in.ingest_docs.resize(in.batches * ChurnBatch());
    size_t n = 0;
    while (n < in.arrivals.size() && in.arrivals[n] < window_s) ++n;
    in.arrivals.resize(n);
    in.stream.queries.resize(n);
  }
  std::printf("serve_churn: %zu base documents, %zu to ingest in %zu "
              "batches of %zu every %.3f s, %zu arrivals at %.0f qps, %zu "
              "clients + 1 writer\n",
              in.base_docs.size(), in.ingest_docs.size(), in.batches,
              ChurnBatch(), ChurnBatchPeriodS(), in.arrivals.size(),
              kChurnOfferedQps, clients);

  ChurnWindow untraced;
  if (args.trace) {
    tracer->set_enabled(false);
    untraced = RunChurnWindow(in, cluster.get(), clients, tracer, hits.get(),
                              &rss);
    cluster = BuildCluster(in, true, tracer);
    tracer->set_enabled(true);
  }
  auto search0 = cluster->coordinator->search_stats();
  auto queue0 = QueueWait(cluster->loopback.get());
  ChurnWindow w =
      RunChurnWindow(in, cluster.get(), clients, tracer, hits.get(), &rss);
  auto queue1 = QueueWait(cluster->loopback.get());
  auto search1 = cluster->coordinator->search_stats();
  if (!args.trace) untraced = w;
  double hit_rate = HitRate(untraced.engine0, untraced.engine1);
  report->Check(hit_rate > kChurnMinHitRate,
                "the result cache answers over half of the untraced reads (" +
                    std::to_string(hit_rate) + ")");

  report->Check(cluster->load_failures == 0, "the base corpus loaded");
  report->Ops("ingest_batches", in.batches, w.failed_batches);
  report->Ops("queries", w.loop.completed, w.loop.failed);
  PrintLateness(w.loop);
  std::printf("ingest: %zu batches, InsertBatch p10 %.3f ms, p25 %.3f ms, "
              "p50 %.3f ms, p90 %.3f ms\n",
              w.batch_ms.size(), Quantile(w.batch_ms, 0.1),
              Quantile(w.batch_ms, 0.25), Quantile(w.batch_ms, 0.5),
              Quantile(w.batch_ms, 0.9));

  // After ingest settles: the sample re-served, and every list checked.
  ServedListChecker checker;
  std::unordered_map<std::string, const ds::index::Document*> by_url;
  for (const auto* part : {&in.base_docs, &in.ingest_docs}) {
    for (const auto& d : *part) by_url[d.url] = &d;
  }
  size_t unknown = 0;
  for (size_t id = 0; id < cluster->coordinator->num_docs(); ++id) {
    auto it = by_url.find(cluster->coordinator->doc(id).url);
    if (it == by_url.end()) {
      ++unknown;
      continue;
    }
    checker.SetDoc(static_cast<ds::index::DocId>(id),
                   it->second->title + " " + it->second->body);
  }
  report->Check(unknown == 0, "every indexed document is a generated one");
  std::vector<std::string> sample_queries(
      in.stream.pool.begin(),
      in.stream.pool.begin() + std::min(in.stream.pool.size(), kSampleQueries));
  ServedList all, sample;
  for (size_t i = 0; i < in.stream.queries.size(); ++i) {
    all.emplace_back(&in.stream.queries[i], hits->Get(i));
  }
  for (const auto& q : sample_queries) {
    sample.emplace_back(&q, cluster->engine->Search(q, kTopK).hits);
    all.push_back(sample.back());
  }
  CheckServed(checker, all, *ExhaustiveIndex(cluster->recorder->recorded()),
              sample, report);

  double queries = static_cast<double>(std::max<size_t>(1, w.loop.completed));
  uint64_t ingest_rpcs = (w.coord1.ingest_batches - w.coord0.ingest_batches) *
                         cluster->coordinator->num_replicas();
  uint64_t query_rpcs = (w.coord1.rpcs - w.coord0.rpcs) - ingest_rpcs;
  auto memory = cluster->coordinator->MemoryUsage();
  if (!args.trace) {
    for (int i = 1; i < kChurnSetups; ++i) {
      double t0 = NowS();
      ChurnInputs again = ChurnSetupInputs(args, args.seconds);
      auto c = BuildCluster(again, false, tracer);
      setup_s.push_back(NowS() - t0);
    }
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("ops_per_s", w.loop.completed / w.loop.wall_s, "1/s");
    report->Metric("p50_ms", WindowedQuantile(w.loop, 0.5), "ms");
    PrintTail(w.loop);
    // Per batch, at the lower quartile of the batch times: a run has only
    // ~22 batches, spread 2.5-9 ms by the queries they meet, and their
    // median moved by 0.3-0.5 (interquartile range / median) between runs.
    report->Metric("ingest_docs_per_s",
                   static_cast<double>(w.docs_added) /
                       static_cast<double>(std::max<size_t>(1, in.batches)) /
                       (Quantile(w.batch_ms, 0.25) / 1e3),
                   "docs/s");
    report->Metric("requests_per_op", query_rpcs / queries, "count");
    report->Metric("results_per_op", MeanHits(all), "count");
    report->Metric("index_bytes", static_cast<double>(memory.total_bytes()),
                   "bytes");
    report->Metric("peak_rss_mb", rss.PeakMb(), "MB");
    return 0;
  }

  std::vector<Span> spans = tracer->Spans();
  LayerMetrics& m = *layers;
  auto per_query = [&](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b) / queries;
  };
  m["index.blocks_decoded_per_query"] =
      per_query(search1.blocks_decoded, search0.blocks_decoded);
  m["index.blocks_skipped_per_query"] =
      per_query(search1.blocks_skipped, search0.blocks_skipped);
  m["index.decode_cache_hits_per_query"] =
      per_query(search1.decode_cache_hits, search0.decode_cache_hits);
  m["index.bytes_per_posting"] = memory.bytes_per_posting();
  m["serve.cache_hit_rate"] = HitRate(w.engine0, w.engine1);
  auto self_ms = SelfMs(spans, "serve.engine");
  m["serve.engine_self_ms.p50"] = Quantile(self_ms, 0.5);
  m["serve.engine_self_ms.p99"] = Quantile(self_ms, 0.99);
  m["serve.invalidations_per_doc"] =
      w.docs_added == 0
          ? 0.0
          : static_cast<double>(w.engine1.invalidations -
                                w.engine0.invalidations) /
                static_cast<double>(w.docs_added);
  auto rpc_ms = DurationsMs(spans, "remote.rpc");
  m["remote.rpc_ms.p50"] = Quantile(rpc_ms, 0.5);
  m["remote.rpc_ms.p99"] = Quantile(rpc_ms, 0.99);
  const RpcCounters& rpc = cluster->traced_transport->counters();
  m["remote.rpcs_per_query"] = rpc.query_rpcs.load() / queries;
  m["remote.bytes_per_query"] = rpc.query_bytes.load() / queries;
  m["remote.queue_wait_ms.p99"] = Minus(queue1, queue0).Quantile(0.99);
  m["remote.hedges_per_query"] = per_query(w.coord1.hedges, w.coord0.hedges);
  auto ingest_ms = DurationsMs(spans, "remote.ingest_batch");
  m["remote.ingest_batch_ms.p50"] = Quantile(ingest_ms, 0.5);
  m["remote.ingest_batch_ms.p99"] = Quantile(ingest_ms, 0.99);
  double client_ms = Sum(DurationsMs(spans, "client.query"));
  double engine_ms = Sum(DurationsMs(spans, "serve.engine"));
  m["trace.unattributed_share"] =
      client_ms == 0 ? 0.0 : (client_ms - engine_ms) / client_ms;
  double untraced_p50 = WindowedQuantile(untraced.loop, 0.5);
  double traced_p50 = WindowedQuantile(w.loop, 0.5);
  m["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0;
  std::printf("layers: per query %.4f ms engine self + %.4f ms coordinator "
              "of %.4f ms from arrival; p50 %.4f ms traced vs %.4f ms "
              "untraced\n",
              Mean(self_ms), Sum(DurationsMs(spans, "remote.search")) / queries,
              client_ms / queries, traced_p50, untraced_p50);
  return 0;
}

}  // namespace perfbench
