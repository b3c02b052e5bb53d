// Shared pieces of the deepsurf benchmark: command-line arguments, the
// result report (metrics, operation counts, correctness checks and the
// final JSON line), small statistics helpers and input fingerprints.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Print the input fingerprint after set-up and exit.
  bool fingerprint_only = false;
  /// Recorded fingerprint for this workload and seed; empty = none.
  std::string expect_fingerprint;
};

/// Metrics, operation counts and correctness verdicts of one run. Every
/// verdict is printed as it is made; Json() renders the last line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness verdict; a false one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts operations of one kind (forms, queries, ingest batches).
  void Ops(const std::string& kind, uint64_t attempted, uint64_t failed);

  bool correct() const { return correct_; }
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Seconds on the steady clock since an arbitrary epoch.
double NowS();
/// Waits until NowS() reaches `t`: sleeps, then spins the last 0.3 ms.
void SleepUntil(double t);

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Worker and client threads: the machine's hardware threads.
size_t Nproc();

/// Resident memory the program under test adds over the benchmark's own
/// inputs. Start() runs once the inputs are built and before the program
/// is set up: it returns freed heap pages to the system and reads VmRSS.
/// Sample() reads VmRSS again at the end of each load and serve phase,
/// while the program's structures are alive. The benchmark's reference
/// structures for the checks are built after the last sample.
class RssGrowth {
 public:
  void Start();
  void Sample();
  /// Largest growth over the Start() reading, in MiB.
  double PeakMb() const { return peak_mb_ - base_mb_; }

 private:
  double base_mb_ = 0;
  double peak_mb_ = 0;
};

/// Order-sensitive 64-bit FNV-1a over strings and integers.
class Hasher {
 public:
  void Add(const std::string& s);
  void Add(uint64_t v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What a workload's generated inputs were: counts plus a hash over
/// their content. One line of the recorded fingerprint file.
struct Fingerprint {
  uint64_t forms = 0;
  uint64_t docs = 0;
  uint64_t queries = 0;
  uint64_t hash = 0;

  std::string ToString() const;
};

/// Prints the fingerprint and compares it with the recorded one (when
/// there is one). Returns false on a mismatch.
bool CheckFingerprint(const Args& args, const Fingerprint& fp, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
