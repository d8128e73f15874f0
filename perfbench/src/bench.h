// Shared pieces of the perfbench harness: run arguments, the metric report,
// sample statistics, output hashing, and the in-memory span tracer.
//
// The harness drives the library only through its public headers. Every
// timing is a std::chrono::steady_clock interval taken around a public call.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pit/tensor/tensor.h"

namespace perfbench {

// Pool width of the untimed output checks that follow each timed loop.
inline constexpr int kOracleThreads = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where a traced run writes its Chrome trace
  int part = -1;          // >= 0: this process is one part of a pooled untraced run
};

// Milliseconds on the steady clock since an arbitrary process-wide origin.
inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin).count();
}

// Per-item seed: a SplitMix64 finalizer over (run seed, stream tag, index), so
// item i's input never depends on how many items a run got through.
uint64_t ItemSeed(uint64_t seed, uint64_t tag, uint64_t index);

// The benchmark's own input generator (SplitMix64 + Box-Muller), so inputs
// stay the same for a seed whatever the library's RNG does.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }
  double Gaussian();
  // Lognormal length with the given mean and shape, rounded and clamped.
  int64_t LogNormalLen(double mean, double sigma, int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

// Standard normal quantile (inverse CDF) for p in (0, 1), |error| < 1.2e-9.
double NormalQuantile(double p);

// [rows, cols] tensor of uniform values in [lo, hi) drawn from `seed`.
pit::Tensor RandomTensor(int64_t rows, int64_t cols, uint64_t seed, float lo = -1.0f,
                         float hi = 1.0f);

// Nearest-rank percentile of an unsorted sample: the smallest value whose
// rank covers fraction q, i.e. sorted[ceil(q * n) - 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
// Number of samples strictly above the nearest-rank q-percentile's rank.
int64_t SamplesBeyond(int64_t n, double q);
double Median(std::vector<double> values);

// FNV-1a over a tensor's shape and bytes: equal hashes stand for bitwise-equal
// outputs, so outputs can be checked after the timed loop without keeping them.
uint64_t HashTensor(const pit::Tensor& t);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Fixed single-thread 256^3 GEMM rate (GFLOP/s, median of repetitions): a
// calibration reading of the machine, never used to normalise a metric.
double CalibGemmGflops1t();

// One metric line of the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Raw samples of one untraced process. An untraced run pools several of
// them (one per child process) before computing its end-to-end metrics.
struct RawRun {
  std::vector<double> setup_ms;    // one per set-up repetition
  std::vector<double> latency_ms;  // one per item sent
  std::vector<char> ok;            // per item: ended kOk and passed the oracle
  double slo_ms = 0.0;             // the workload's latency limit
  double tokens = 0.0;             // real token rows of the ok items
  double busy_ms = 0.0;            // the time throughput is taken over
  double rss_mb = 0.0;             // peak RSS at the end of the timed loop
  double calib_before = 0.0, calib_after = 0.0;
  int pool_width = 0;              // ParallelFor width of the timed loop
};

// What one workload run produced: the contract's result fields, the raw
// samples (untraced) or per-layer metrics (traced), and human-readable notes
// printed above the final JSON line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  RawRun raw;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// ---- Tracing ----------------------------------------------------------------
//
// Spans live in memory for the whole run and are written once at the end.
// Each records its name, the layer it times, start/end, the enclosing span
// and a request id. The benchmark thread is the only one that records
// spans, so nesting is a stack.
struct Span {
  std::string name;
  std::string layer;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int64_t request = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int Begin(const char* name, const char* layer, int64_t request);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Self time per layer: each span's duration minus the time its direct
  // children cover, summed by layer (ms).
  std::map<std::string, double> SelfMsByLayer() const;
  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a disabled tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* layer, int64_t request = -1)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Begin(name, layer, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      tracer_.End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// Workload entry points (serving.cc, pit_sparse.cc).
RunResult RunBertMnliOpen(const Args& args, Tracer& tracer);
RunResult RunOptAlpacaOffline(const Args& args, Tracer& tracer);
RunResult RunPitDynamicSparse(const Args& args, Tracer& tracer);

// Same-seed determinism probes for the self-check: fixed-size prefixes of the
// workloads, returning their inputs' hashes and deterministic counters.
std::vector<int64_t> ServingCountersForSelfCheck(bool bert, uint64_t seed);
std::vector<int64_t> PitCountersForSelfCheck(uint64_t seed);

// Statistics self-checks (selfcheck.cc). Cheap ones run before every
// workload; `full` adds the same-seed counter-determinism runs.
bool SelfCheck(bool full, std::vector<std::string>* log);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
