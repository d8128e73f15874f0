#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "pit/common/parallel_for.h"
#include "pit/tensor/ops.h"

namespace perfbench {

uint64_t ItemSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag * 0xd1b54a32d192ed03ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double InputRng::Gaussian() {
  const double u1 = std::max(Uniform(), 1e-300);
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

int64_t InputRng::LogNormalLen(double mean, double sigma, int64_t lo, int64_t hi) {
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  const double x = std::exp(mu + sigma * Gaussian());
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(x)), lo, hi);
}

double NormalQuantile(double p) {
  // Acklam's rational approximation, central region plus two tails.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  p = std::clamp(p, 1e-300, 1.0 - 1e-16);
  if (p < kLow || p > 1.0 - kLow) {
    const double q = std::sqrt(-2.0 * std::log(p < kLow ? p : 1.0 - p));
    const double x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
                     ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    return p < kLow ? x : -x;
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

pit::Tensor RandomTensor(int64_t rows, int64_t cols, uint64_t seed, float lo, float hi) {
  pit::Tensor t({rows, cols});
  InputRng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = lo + static_cast<float>(rng.Uniform()) * (hi - lo);
  }
  return t;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t rank = std::clamp<int64_t>(static_cast<int64_t>(std::ceil(q * n)), 1, n);
  return values[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) {
    return 0;
  }
  return n - std::clamp<int64_t>(static_cast<int64_t>(std::ceil(q * n)), 1, n);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

uint64_t HashTensor(const pit::Tensor& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const size_t len = static_cast<size_t>(t.size()) * sizeof(float);
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  for (const int64_t d : t.shape()) {
    h = (h ^ static_cast<uint64_t>(d)) * 0x100000001b3ull;
  }
  return h;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double CalibGemmGflops1t() {
  constexpr int64_t kN = 256;
  constexpr int kReps = 60;
  pit::ScopedNumThreads one(1);
  const pit::Tensor a = RandomTensor(kN, kN, 0xca1b);
  const pit::Tensor b = RandomTensor(kN, kN, 0xca1c);
  pit::Tensor c({kN, kN});
  pit::MatMulInto(a, b, c);  // warm caches and lazy dispatch
  std::vector<double> gflops;
  gflops.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = NowMs();
    pit::MatMulInto(a, b, c);
    const double ms = NowMs() - t0;
    gflops.push_back(2.0 * kN * kN * kN / (ms * 1e6));
  }
  return Median(std::move(gflops));
}

// ---- Tracer -----------------------------------------------------------------

int Tracer::Begin(const char* name, const char* layer, int64_t request) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ms = NowMs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(), s.start_ms * 1000.0,
                 (s.end_ms - s.start_ms) * 1000.0, i, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
