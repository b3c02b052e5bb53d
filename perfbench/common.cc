#include "common.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <numeric>
#include <thread>

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) correct_ = false;
}

void Report::Ops(const std::string& kind, uint64_t attempted,
                 uint64_t failed) {
  std::printf("ops: %-14s attempted %" PRIu64 "  failed %" PRIu64 "\n",
              kind.c_str(), attempted, failed);
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                attempted_, failed_);
  out += buf;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    // A metric that could not be measured would print as NaN, which is
    // not JSON; report 0 and let the checks above say why.
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", m.name.c_str(), v);
    out += buf;
    out += "\"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  // A timed sleep wakes ~0.1 ms late here, more than a cached query
  // takes: sleep until shortly before `t`, then spin.
  constexpr double kSpinS = 300e-6;
  double left = t - NowS();
  if (left > kSpinS) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left - kSpinS));
  }
  while (NowS() < t) {
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(v.size() - 1, lo + 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

namespace {

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

void RssGrowth::Start() {
#ifdef __GLIBC__
  // Heap pages freed by earlier set-ups would otherwise be reused by the
  // program without showing as growth.
  malloc_trim(0);
#endif
  base_mb_ = RssMb();
  peak_mb_ = base_mb_;
}

void RssGrowth::Sample() { peak_mb_ = std::max(peak_mb_, RssMb()); }

void Hasher::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  Add(static_cast<uint64_t>(s.size()));
}

void Hasher::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Fingerprint::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "forms=%" PRIu64 " docs=%" PRIu64 " queries=%" PRIu64
                " hash=%016" PRIx64,
                forms, docs, queries, hash);
  return buf;
}

bool CheckFingerprint(const Args& args, const Fingerprint& fp,
                      Report* report) {
  std::string line = fp.ToString();
  std::printf("fingerprint: %s seed %" PRIu64 " %s\n", args.workload.c_str(),
              args.seed, line.c_str());
  if (args.expect_fingerprint.empty()) {
    std::printf("fingerprint: none recorded for this seed\n");
    return true;
  }
  bool ok = line == args.expect_fingerprint;
  report->Check(ok, "inputs match the recorded fingerprint (recorded: " +
                        args.expect_fingerprint + ")");
  return ok;
}

}  // namespace perfbench
