#include "tracing.h"

#include <chrono>
#include <cstring>

#include "remote/wire.h"

namespace perfbench {

namespace dsi = deepsurf::index;
namespace dsn = deepsurf::net;

namespace {

thread_local uint64_t tl_current_span = 0;

void AtomicMin(std::atomic<int64_t>* a, int64_t v) {
  int64_t cur = a->load(std::memory_order_relaxed);
  while (v < cur && !a->compare_exchange_weak(cur, v)) {
  }
}

void AtomicMax(std::atomic<int64_t>* a, int64_t v) {
  int64_t cur = a->load(std::memory_order_relaxed);
  while (v > cur && !a->compare_exchange_weak(cur, v)) {
  }
}

}  // namespace

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_s_(static_cast<double>(SteadyNs()) * 1e-9) {}

double Tracer::NowMs() const {
  return (static_cast<double>(SteadyNs()) * 1e-9 - epoch_s_) * 1e3;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t attr)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.attr = attr;
  span_.id = tracer_->NewId();
  span_.parent = tl_current_span;
  saved_current_ = tl_current_span;
  tl_current_span = span_.id;
  span_.start_ms = tracer_->NowMs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ms = tracer_->NowMs();
  tracer_->Record(span_);
  tl_current_span = saved_current_;
}

uint64_t CurrentSpanId() { return tl_current_span; }

FormClock::FormClock(size_t hosts)
    : first_(new std::atomic<int64_t>[hosts]),
      last_(new std::atomic<int64_t>[hosts]),
      n_(hosts) {
  Reset();
}

void FormClock::Reset() {
  for (size_t i = 0; i < n_; ++i) {
    first_[i].store(INT64_MAX);
    last_[i].store(INT64_MIN);
  }
}

void FormClock::Touch(size_t host, int64_t start_ns, int64_t end_ns) {
  AtomicMin(&first_[host], start_ns);
  AtomicMax(&last_[host], end_ns);
}

double FormClock::WindowMs(size_t host) const {
  int64_t a = first_[host].load();
  int64_t b = last_[host].load();
  if (a == INT64_MAX || b < a) return -1.0;
  return static_cast<double>(b - a) * 1e-6;
}

void DistinctUrls::Add(const std::string& url) {
  std::lock_guard<std::mutex> lock(mu_);
  urls_.insert(url);
}

size_t DistinctUrls::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return urls_.size();
}

void DistinctUrls::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  urls_.clear();
}

dsn::HttpResponse ObservedSite::Handle(const dsn::HttpRequest& request) {
  ScopedSpan span(tracer_, "net.site", static_cast<int64_t>(host_index_));
  if (tracer_->enabled()) urls_->Add(request.url.ToCanonicalString());
  int64_t start = SteadyNs();
  dsn::HttpResponse response = inner_->Handle(request);
  clock_->Touch(host_index_, start, SteadyNs());
  return response;
}

deepsurf::Result<size_t> TracedIndex::InsertBatch(
    const std::vector<dsi::Document>& docs, std::vector<bool>* newly_added) {
  deepsurf::Result<size_t> added = [&] {
    ScopedSpan span(tracer_, insert_span_, static_cast<int64_t>(docs.size()));
    return inner_->InsertBatch(docs, newly_added);
  }();
  offered_.fetch_add(docs.size());
  if (added.ok()) added_.fetch_add(*added);
  if (clock_ != nullptr && !docs.empty()) {
    auto it = hosts_->find(docs.front().source_host);
    if (it != hosts_->end()) {
      int64_t now = SteadyNs();
      clock_->Touch(it->second, now, now);
    }
  }
  return added;
}

std::vector<dsi::SearchHit> TracedIndex::Search(const std::string& query,
                                                size_t k) const {
  ScopedSpan span(tracer_, search_span_);
  return inner_->Search(query, k);
}

std::vector<dsi::SearchHit> TracedIndex::SearchTerms(
    const std::vector<std::string>& terms, size_t k) const {
  ScopedSpan span(tracer_, search_span_);
  return inner_->SearchTerms(terms, k);
}

void TracedTransport::Call(size_t shard, size_t replica, std::string request,
                           Callback done, CancelToken cancelled) {
  auto type = deepsurf::remote::PeekType(request);
  bool query = type.ok() &&
               (*type == deepsurf::remote::MessageType::kSearchRequest ||
                *type == deepsurf::remote::MessageType::kStatsRequest);
  if (!query) {
    counters_->other_rpcs.fetch_add(1);
    inner_->Call(shard, replica, std::move(request), std::move(done),
                 std::move(cancelled));
    return;
  }
  Tracer* tracer = tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  Span span;
  if (tracer != nullptr) {
    span.name = "remote.rpc";
    span.id = tracer->NewId();
    span.parent = CurrentSpanId();
    span.start_ms = tracer->NowMs();
  }
  uint64_t request_bytes = request.size();
  counters_->query_rpcs.fetch_add(1);
  std::shared_ptr<RpcCounters> counters = counters_;
  inner_->Call(
      shard, replica, std::move(request),
      [tracer, span, request_bytes, counters,
       done = std::move(done)](deepsurf::Result<std::string> response) mutable {
        uint64_t bytes = request_bytes + (response.ok() ? response->size() : 0);
        counters->query_bytes.fetch_add(bytes);
        if (tracer != nullptr) {
          span.end_ms = tracer->NowMs();
          span.attr = static_cast<int64_t>(bytes);
          tracer->Record(span);
        }
        done(std::move(response));
      },
      std::move(cancelled));
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.ms());
  }
  return out;
}

std::vector<double> SelfMs(const std::vector<Span>& spans, const char* name) {
  std::unordered_map<uint64_t, double> children_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) children_ms[s.parent] += s.ms();
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    auto it = children_ms.find(s.id);
    out.push_back(s.ms() - (it == children_ms.end() ? 0.0 : it->second));
  }
  return out;
}

}  // namespace perfbench
