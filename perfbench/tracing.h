// Span recording for the traced run, done entirely from the benchmark's
// side: thin decorators over the program's public interfaces
// (net::WebServer, index::WritableIndex, remote::Transport) time every
// call that crosses them, and ScopedSpan times calls the benchmark makes
// itself (engine queries, the four core:: stage functions). Spans live
// in memory only; the per-layer metrics are computed from them.
//
// A span's parent is the span open on the same thread when it started.
// RPC completions arrive on server threads, so an RPC span keeps the
// parent that was open where Call was made (none, when the coordinator
// fans out from its pool).
//
// With a null or disabled Tracer every decorator forwards untouched,
// except for the FormClock stamps the surface workload reads its
// per-form latency from in both runs.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "index/search_index.h"
#include "net/web.h"
#include "remote/transport.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  uint64_t id = 0;
  uint64_t parent = 0;
  double start_ms = 0;  ///< since the tracer was made
  double end_ms = 0;
  int64_t attr = 0;  ///< span-specific: bytes, documents, host index

  double ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Pauses or resumes recording (the traced run times one untraced pass
  /// through the same decorators, to report the tracing overhead).
  void set_enabled(bool on) { enabled_.store(on); }
  double NowMs() const;
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);

  /// Spans recorded so far (copy).
  std::vector<Span> Spans() const;

 private:
  std::atomic<bool> enabled_;
  const double epoch_s_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one scope as a span under the thread's open span. No-op with a
/// null or disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t attr = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_attr(int64_t attr) { span_.attr = attr; }
  /// Backdates the start (an open-loop query starts at its scheduled
  /// arrival, not when a client picked it up).
  void set_start_ms(double ms) { span_.start_ms = ms; }

 private:
  Tracer* tracer_;
  Span span_;
  uint64_t saved_current_ = 0;
};

/// Id of the span open on the calling thread (0 = none).
uint64_t CurrentSpanId();

/// Per-host first and last activity stamps (steady-clock ns). A surfaced
/// form is analysed and ingested against its own host only, so the
/// window between the two stamps is that form's latency in the driver.
class FormClock {
 public:
  explicit FormClock(size_t hosts);
  void Reset();
  void Touch(size_t host, int64_t start_ns, int64_t end_ns);
  /// Window of `host` in ms; negative when the host saw no activity.
  double WindowMs(size_t host) const;

 private:
  std::unique_ptr<std::atomic<int64_t>[]> first_;
  std::unique_ptr<std::atomic<int64_t>[]> last_;
  size_t n_;
};

int64_t SteadyNs();

/// Distinct canonical URLs requested from the sites while tracing.
class DistinctUrls {
 public:
  void Add(const std::string& url);
  size_t size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::unordered_set<std::string> urls_;
};

/// net::WebServer decorator: a "net.site" span per request (attr = host
/// index), FormClock stamps, and (while tracing) the URL in DistinctUrls.
class ObservedSite : public deepsurf::net::WebServer {
 public:
  ObservedSite(std::shared_ptr<deepsurf::net::WebServer> inner,
               size_t host_index, FormClock* clock, DistinctUrls* urls,
               Tracer* tracer)
      : inner_(std::move(inner)),
        host_index_(host_index),
        clock_(clock),
        urls_(urls),
        tracer_(tracer) {}

  deepsurf::net::HttpResponse Handle(
      const deepsurf::net::HttpRequest& request) override;
  const std::string& host() const override { return inner_->host(); }

 private:
  std::shared_ptr<deepsurf::net::WebServer> inner_;
  size_t host_index_;
  FormClock* clock_;
  DistinctUrls* urls_;
  Tracer* tracer_;
};

/// index::WritableIndex decorator: spans named `search_span` around
/// Search/SearchTerms and `insert_span` around InsertBatch (attr =
/// documents offered), plus counts of documents offered and newly added.
/// With a FormClock it stamps each batch's end on its documents' host.
class TracedIndex : public deepsurf::index::WritableIndex {
 public:
  TracedIndex(deepsurf::index::WritableIndex* inner, Tracer* tracer,
              const char* search_span, const char* insert_span,
              FormClock* clock = nullptr,
              const std::unordered_map<std::string, size_t>* hosts = nullptr)
      : inner_(inner),
        tracer_(tracer),
        search_span_(search_span),
        insert_span_(insert_span),
        clock_(clock),
        hosts_(hosts) {}

  deepsurf::Result<deepsurf::index::DocId> AddDocument(
      const std::string& url, const std::string& title,
      const std::string& body, bool is_deep_web,
      const std::string& source_host) override {
    return inner_->AddDocument(url, title, body, is_deep_web, source_host);
  }
  deepsurf::Result<size_t> InsertBatch(
      const std::vector<deepsurf::index::Document>& docs,
      std::vector<bool>* newly_added = nullptr) override;
  std::vector<deepsurf::index::SearchHit> Search(const std::string& query,
                                                 size_t k) const override;
  std::vector<deepsurf::index::SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const override;
  deepsurf::index::DocInfo doc(deepsurf::index::DocId id) const override {
    return inner_->doc(id);
  }
  const deepsurf::index::DocInfo& doc_ref(
      deepsurf::index::DocId id) const override {
    return inner_->doc_ref(id);
  }
  size_t num_docs() const override { return inner_->num_docs(); }
  uint64_t ingest_epoch() const override { return inner_->ingest_epoch(); }
  deepsurf::index::IndexMemoryUsage MemoryUsage() const override {
    return inner_->MemoryUsage();
  }
  deepsurf::index::SearchStats search_stats() const override {
    return inner_->search_stats();
  }

  uint64_t docs_offered() const { return offered_.load(); }
  uint64_t docs_added() const { return added_.load(); }

 private:
  deepsurf::index::WritableIndex* inner_;
  Tracer* tracer_;
  const char* search_span_;
  const char* insert_span_;
  FormClock* clock_;
  const std::unordered_map<std::string, size_t>* hosts_;
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> added_{0};
};

/// Per message type RPC counts and frame bytes, kept alive by the
/// completions still in flight.
struct RpcCounters {
  std::atomic<uint64_t> query_rpcs{0};   ///< stats + search rounds
  std::atomic<uint64_t> query_bytes{0};  ///< request + response frames
  std::atomic<uint64_t> other_rpcs{0};   ///< ingest, health, fetch
};

/// remote::Transport decorator: a "remote.rpc" span per query-path call
/// (stats or search round; attr = request + response frame bytes) and
/// RpcCounters for every call.
class TracedTransport : public deepsurf::remote::Transport {
 public:
  TracedTransport(deepsurf::remote::Transport* inner, Tracer* tracer)
      : inner_(inner),
        tracer_(tracer),
        counters_(std::make_shared<RpcCounters>()) {}

  void Call(size_t shard, size_t replica, std::string request, Callback done,
            CancelToken cancelled = nullptr) override;
  size_t num_shards() const override { return inner_->num_shards(); }
  size_t num_replicas() const override { return inner_->num_replicas(); }

  const RpcCounters& counters() const { return *counters_; }

 private:
  deepsurf::remote::Transport* inner_;
  Tracer* tracer_;
  std::shared_ptr<RpcCounters> counters_;
};

/// Durations (ms) of the spans named `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const char* name);

/// Self times (ms) of the spans named `name`: each duration minus the
/// durations of its direct children.
std::vector<double> SelfMs(const std::vector<Span>& spans, const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
