// The two serving workloads: open-loop BERT traffic (bert_mnli_open) and a
// closed-loop OPT batch job (opt_alpaca_offline), both through
// runtime/serving_engine. A traced run adds spans around every serving call
// and a decomposition replay of the traced requests through the public layer
// calls the engine is built from.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "metrics.h"
#include "open_loop.h"
#include "pit/common/parallel_for.h"
#include "pit/core/sread_swrite.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/attention_masks.h"

namespace perfbench {
namespace {

using pit::PlannedFfnStack;
using pit::PlannedTransformerStack;
using pit::ServeOutcome;
using pit::ServeRequest;
using pit::ServeStatus;
using pit::ServingEngine;
using pit::Tensor;

constexpr uint64_t kWeightSeed = 0x5eed0001;  // model weights: fixed, not an input
constexpr int kSetupReps = 9;                 // set-ups per run; setup_s is their median
constexpr size_t kPoolShapes = 16;            // the engine's per-stream shape-pool bound
constexpr int64_t kMinBucket = 16;            // the engine's smallest packed bucket
constexpr int kSpeedupProbeForwards = 16;

// Fixed workload parameters (perfbench/README.md lists them with the reasons).
struct ServingParams {
  bool transformer;
  int64_t layers, hidden, heads, ffn;
  int streams, threads, batch_window, max_batch_tokens;
  double len_mean, len_sigma;
  int64_t len_min, len_max;
  double slo_ms;  // per-request latency limit behind slo_attain
};

constexpr ServingParams kBert{true, 2, 256, 4, 1024, 2, 2, 1, 512, 39.0, 0.45, 4, 128, 20.0};
constexpr double kBertRate = 60.0;  // open-loop Poisson arrivals, requests/s
constexpr ServingParams kOpt{false, 2, 256, 0, 1024, 1, 2, 16, 512, 160.0, 0.70, 4, 512, 200.0};
// One batch window per call: the engine claims fixed 16-request spans, so
// larger calls run the same packed forwards; 16 gives 4x the call samples.
constexpr int kOptRequestsPerCall = 16;

// One request of a run: its length and the seed of its activations.
struct RequestSpec {
  int64_t tokens = 0;
  uint64_t seed = 0;
};

// Stratified sample of n uniforms in a seeded random order: one point in
// each stratum [k/n, (k+1)/n). A run then always holds the same empirical
// distribution; the seed picks the points within strata and their order.
std::vector<double> StratifiedUniforms(size_t n, InputRng& rng) {
  std::vector<double> u(n);
  for (size_t k = 0; k < n; ++k) {
    u[k] = (static_cast<double>(k) + rng.Uniform()) / static_cast<double>(n);
  }
  for (size_t k = n; k > 1; --k) {
    std::swap(u[k - 1], u[rng.NextU64() % k]);
  }
  return u;
}

// The open-loop schedule: rate x seconds Poisson arrivals. Gaps are
// exponential quantiles and lengths lognormal quantiles at stratified
// points, so every run offers the same load, burstiness and length mix; the
// seed chooses which request gets which gap and length, and its activations.
std::vector<RequestSpec> BertSchedule(uint64_t seed, double seconds, std::vector<double>* due) {
  const ServingParams& p = kBert;
  InputRng rng(ItemSeed(seed, 1, 0));
  const size_t n = static_cast<size_t>(kBertRate * seconds);
  const std::vector<double> gap_u = StratifiedUniforms(n, rng);
  const std::vector<double> len_u = StratifiedUniforms(n, rng);
  // Arrival k ends the k-th gap; the gaps are rescaled to span the run.
  due->resize(n);
  double t = 0.0;
  for (size_t k = 0; k < n; ++k) {
    t += -std::log1p(-gap_u[k]);
    (*due)[k] = t;
  }
  for (double& d : *due) {
    d *= seconds * 1000.0 / t;
  }
  const double mu = std::log(p.len_mean) - 0.5 * p.len_sigma * p.len_sigma;
  std::vector<RequestSpec> specs(n);
  for (size_t k = 0; k < n; ++k) {
    const double len = std::exp(mu + p.len_sigma * NormalQuantile(len_u[k]));
    specs[k] = {std::clamp<int64_t>(std::llround(len), p.len_min, p.len_max),
                ItemSeed(seed, 2, k)};
  }
  return specs;
}

// The requests of offline call `call`: a function of (seed, call) only.
std::vector<RequestSpec> OptCall(uint64_t seed, uint64_t call) {
  const ServingParams& p = kOpt;
  InputRng rng(ItemSeed(seed, 3, call));
  std::vector<RequestSpec> specs(kOptRequestsPerCall);
  for (int i = 0; i < kOptRequestsPerCall; ++i) {
    specs[static_cast<size_t>(i)] = {
        rng.LogNormalLen(p.len_mean, p.len_sigma, p.len_min, p.len_max),
        ItemSeed(seed, 4, call * kOptRequestsPerCall + static_cast<uint64_t>(i))};
  }
  return specs;
}

Tensor MakeInput(const RequestSpec& spec, int64_t hidden) {
  return RandomTensor(spec.tokens, hidden, spec.seed);
}

// What the timed loop keeps per request: enough to re-check it afterwards.
struct RequestRecord {
  RequestSpec spec;
  ServeStatus status = ServeStatus::kInternal;
  uint64_t hash = 0;
};

// Adapters over the two stack types, so the harness has one code path.
template <typename Stack>
struct StackOps;

template <>
struct StackOps<PlannedTransformerStack> {
  using Stream = PlannedTransformerStack::Stream;
  static std::unique_ptr<PlannedTransformerStack> Make(const ServingParams& p) {
    pit::Rng rng(kWeightSeed);
    return std::make_unique<PlannedTransformerStack>(p.layers, p.hidden, p.heads, p.ffn, rng);
  }
  static Stream MakeStream(const PlannedTransformerStack& s, int64_t tokens, bool masked) {
    return s.MakeStream(tokens, masked);
  }
  static void Forward(const PlannedTransformerStack& s, Stream& stream, const Tensor& x,
                      const Tensor* mask, Tensor* out) {
    s.ForwardWith(stream, x, mask, nullptr, out);
  }
  static pit::PlanStats Stats(const PlannedTransformerStack& s, int64_t tokens, bool masked) {
    return s.StatsFor(tokens, masked);
  }
  static Tensor Eager(const PlannedTransformerStack& s, const Tensor& x) {
    return s.ForwardEager(x);
  }
};

template <>
struct StackOps<PlannedFfnStack> {
  using Stream = PlannedFfnStack::Stream;
  static std::unique_ptr<PlannedFfnStack> Make(const ServingParams& p) {
    pit::Rng rng(kWeightSeed);
    return std::make_unique<PlannedFfnStack>(p.layers, p.hidden, p.ffn, rng);
  }
  static Stream MakeStream(const PlannedFfnStack& s, int64_t tokens, bool /*masked*/) {
    return s.MakeStream(tokens);
  }
  static void Forward(const PlannedFfnStack& s, Stream& stream, const Tensor& x,
                      const Tensor* /*mask*/, Tensor* out) {
    s.ForwardWith(stream, x, nullptr, out);
  }
  static pit::PlanStats Stats(const PlannedFfnStack& s, int64_t tokens, bool /*masked*/) {
    return s.StatsFor(tokens);
  }
  static Tensor Eager(const PlannedFfnStack& s, const Tensor& x) { return s.ForwardEager(x); }
};

template <typename Stack>
struct Session {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<ServingEngine> engine;
};

// A fixed warm-up set of serving calls, independent of the seed: it compiles
// the plans the steady state needs first (1:1: a spread of lengths in one
// call; packed: one call per bucket, so each bucket gets its own forward).
using Warmup = std::vector<std::vector<ServeRequest>>;

Warmup WarmupCalls(const ServingParams& p) {
  Warmup calls;
  auto request = [&](int64_t tokens) {
    ServeRequest r;
    r.x = MakeInput({tokens, 0xa11ce + static_cast<uint64_t>(tokens)}, p.hidden);
    return r;
  };
  if (p.batch_window > 1) {
    for (int64_t b = kMinBucket; b <= p.max_batch_tokens; b *= 2) {
      calls.emplace_back();
      calls.back().push_back(request(b));
    }
  } else {
    calls.emplace_back();
    for (int64_t t = 8; t <= p.len_max; t += 8) {
      calls.back().push_back(request(t));
    }
  }
  return calls;
}

// Builds the stack and engine and serves the warm-up set; returns wall ms.
template <typename Stack>
double SetUp(const ServingParams& p, const Warmup& warmup, Session<Stack>* session) {
  const double t0 = NowMs();
  session->stack = StackOps<Stack>::Make(p);
  pit::ServingEngineOptions options;
  options.num_streams = p.streams;
  options.batch_window = p.batch_window;
  options.max_batch_tokens = p.max_batch_tokens;
  session->engine = std::make_unique<ServingEngine>(*session->stack, options);
  std::vector<std::vector<ServeOutcome>> outs;
  for (const std::vector<ServeRequest>& call : warmup) {
    outs.push_back(session->engine->ServeWithStatus(call));
  }
  const double ms = NowMs() - t0;
  for (const std::vector<ServeOutcome>& out : outs) {
    for (const ServeOutcome& o : out) {
      if (o.status != ServeStatus::kOk) {
        std::fprintf(stderr, "warm-up request failed: %s\n", pit::ServeStatusName(o.status));
        std::exit(3);
      }
    }
  }
  return ms;
}

// Lifetime engine counters; per-run figures are differences of two snapshots.
struct EngineSnapshot {
  int64_t requests = 0, forwards = 0, retries = 0, hits = 0, misses = 0;
  int64_t packed = 0, computed = 0;
  std::map<int64_t, int64_t> bucket_forwards;
};

EngineSnapshot Snap(const pit::ServingEngineStats& s) {
  EngineSnapshot snap;
  snap.requests = s.requests;
  snap.forwards = s.batches;
  snap.retries = s.retries;
  for (const pit::ServingBucketStats& b : s.buckets) {
    snap.hits += b.plan_hits;
    snap.misses += b.plan_misses;
    snap.packed += b.packed_tokens;
    snap.computed += b.computed_tokens;
    snap.bucket_forwards[b.bucket] = b.batches;
  }
  return snap;
}

EngineSnapshot Delta(const EngineSnapshot& a, const EngineSnapshot& b) {
  EngineSnapshot d;
  d.requests = b.requests - a.requests;
  d.forwards = b.forwards - a.forwards;
  d.retries = b.retries - a.retries;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.packed = b.packed - a.packed;
  d.computed = b.computed - a.computed;
  for (const auto& [bucket, n] : b.bucket_forwards) {
    const auto it = a.bucket_forwards.find(bucket);
    const int64_t diff = n - (it == a.bucket_forwards.end() ? 0 : it->second);
    if (diff != 0) {
      d.bucket_forwards[bucket] = diff;
    }
  }
  return d;
}

// Serves `batch` (requests first, first + 1, ... of the run) in one
// ServeWithStatus call and records each status and output hash; the outputs
// are dropped, so memory stays flat however long the run.
void ServeCall(ServingEngine& engine, const std::vector<ServeRequest>& batch, size_t first,
               std::vector<RequestRecord>* records, Tracer& tracer) {
  std::vector<ServeOutcome> out;
  {
    ScopedSpan span(tracer, "ServeWithStatus", "serving_engine", static_cast<int64_t>(first));
    out = engine.ServeWithStatus(batch);
  }
  for (size_t i = 0; i < out.size(); ++i) {
    RequestRecord& rec = (*records)[first + i];
    rec.status = out[i].status;
    rec.hash = rec.status == ServeStatus::kOk ? HashTensor(out[i].output) : 0;
  }
}

// Oracle, run after the timed loop: every kOk output must be bitwise equal to
// the stack's eager forward (the dense serving contract). The eager forward
// is pure, so requests are checked in parallel on the pool. Returns the
// number of requests that failed (non-kOk or mismatch) and marks them.
template <typename Stack>
int64_t CheckOutputs(const Stack& stack, const ServingParams& p,
                     const std::vector<RequestRecord>& records, std::vector<bool>* ok) {
  std::vector<char> good(records.size(), 0);
  pit::ParallelFor(static_cast<int64_t>(records.size()), 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const RequestRecord& rec = records[static_cast<size_t>(i)];
      good[static_cast<size_t>(i)] =
          rec.status == ServeStatus::kOk &&
          HashTensor(StackOps<Stack>::Eager(stack, MakeInput(rec.spec, p.hidden))) == rec.hash;
    }
  });
  int64_t failed = 0;
  ok->assign(records.size(), false);
  for (size_t i = 0; i < records.size(); ++i) {
    (*ok)[i] = good[i] != 0;
    if (!good[i]) {
      ++failed;
      std::fprintf(stderr, "request %zu (%lld tokens) failed: status %s%s\n", i,
                   static_cast<long long>(records[i].spec.tokens),
                   pit::ServeStatusName(records[i].status),
                   records[i].status == ServeStatus::kOk ? ", output differs from the oracle" : "");
    }
  }
  return failed;
}

// ---- Decomposition replay ---------------------------------------------------
//
// Replays the traced requests through the public calls the engine composes —
// SReadRowsInto, BlockDiagonalMaskInto, MakeStream, ForwardWith,
// SWriteRowsFrom — with the engine's admission rule (fixed batch-window
// spans, greedy token budget, power-of-two buckets) and one 16-shape stream
// pool, on a fresh stack with the same weights. Its per-bucket forward counts
// must equal the engine's, and its outputs its hashes.
struct ReplayResult {
  std::map<int64_t, int64_t> bucket_forwards;
  int64_t forwards = 0;
  int64_t computed_rows = 0;
  int64_t mismatches = 0;
  double forward_ms = 0.0, pack_ms = 0.0, scatter_ms = 0.0, softmax_ms = 0.0;
  double moved_bytes = 0.0;  // SRead + SWrite bytes, computed from tensor sizes
  std::vector<double> make_stream_ms, compile_ms;
  int64_t steps = 0;
  double arena_mb = 0.0;
  double speedup_2t = 0.0;
};

template <typename Stack>
ReplayResult Replay(const ServingParams& p, const std::vector<std::vector<size_t>>& calls,
                    const std::vector<RequestRecord>& records, Tracer& tracer) {
  using Ops = StackOps<Stack>;
  using Key = std::pair<int64_t, bool>;
  const std::unique_ptr<Stack> stack = Ops::Make(p);
  const int64_t h = p.hidden;
  const bool packed = p.batch_window > 1;
  const bool masked = packed && p.transformer;
  ReplayResult r;
  std::map<Key, typename Ops::Stream> pool;
  std::set<Key> compiled;
  std::map<int64_t, Tensor> x_stage, out_stage, mask_stage, scores;
  std::vector<int64_t> iota(static_cast<size_t>(p.max_batch_tokens) + p.len_max);
  std::iota(iota.begin(), iota.end(), 0);
  struct Probe {
    Key key;
    Tensor x, mask;
  };
  std::vector<Probe> probes;

  auto forward_batch = [&](const std::vector<size_t>& batch) {
    std::vector<Tensor> inputs;
    std::vector<int64_t> lens;
    int64_t sum = 0;
    for (const size_t idx : batch) {
      inputs.push_back(MakeInput(records[idx].spec, h));
      lens.push_back(records[idx].spec.tokens);
      sum += lens.back();
    }
    int64_t bucket = sum;
    if (packed) {
      bucket = kMinBucket;
      while (bucket < sum) {
        bucket *= 2;
      }
    }
    const Key key{bucket, masked};
    std::vector<Tensor> outputs;
    for (const int64_t len : lens) {
      outputs.emplace_back(pit::Shape{len, h});
    }
    // 1:1 serving forwards the request itself; packing stages per bucket.
    const Tensor* x_in = &inputs.front();
    Tensor* y = &outputs.front();
    Tensor* mask = nullptr;
    if (packed) {
      x_in = &x_stage.try_emplace(bucket, pit::Shape{bucket, h}).first->second;
      y = &out_stage.try_emplace(bucket, pit::Shape{bucket, h}).first->second;
      if (masked) {
        mask = &mask_stage.try_emplace(bucket, pit::Shape{bucket, bucket}).first->second;
      }
    }
    ScopedSpan fwd_span(tracer, "forward", "replay", static_cast<int64_t>(batch.front()));
    if (packed) {
      ScopedSpan span(tracer, "SReadRowsInto", "sread_swrite");
      const double t0 = NowMs();
      Tensor& x = x_stage.at(bucket);
      std::fill(x.data() + sum * h, x.data() + bucket * h, 0.0f);
      int64_t off = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        pit::SReadRowsInto(inputs[i], std::span<const int64_t>(iota.data(), lens[i]), x, off);
        off += lens[i];
      }
      r.pack_ms += NowMs() - t0;
      r.moved_bytes += 2.0 * static_cast<double>(sum * h) * sizeof(float);
    }
    if (mask != nullptr) {
      ScopedSpan span(tracer, "BlockDiagonalMaskInto", "attention_masks");
      pit::BlockDiagonalMaskInto(lens, {}, *mask);
    }
    auto it = pool.find(key);
    if (it == pool.end()) {
      if (pool.size() >= kPoolShapes) {
        pool.clear();
      }
      if (compiled.insert(key).second) {
        ScopedSpan span(tracer, "StatsFor", "execution_plan");
        const double t0 = NowMs();
        const pit::PlanStats stats = Ops::Stats(*stack, key.first, key.second);
        r.compile_ms.push_back(NowMs() - t0);
        r.steps = stats.num_steps;
        r.arena_mb = std::max(r.arena_mb, static_cast<double>(stats.arena_bytes) / (1 << 20));
      }
      ScopedSpan span(tracer, "MakeStream", "models");
      const double t0 = NowMs();
      it = pool.emplace(key, Ops::MakeStream(*stack, key.first, key.second)).first;
      r.make_stream_ms.push_back(NowMs() - t0);
    }
    {
      ScopedSpan span(tracer, "ForwardWith", "models");
      const double t0 = NowMs();
      Ops::Forward(*stack, it->second, *x_in, mask, y);
      r.forward_ms += NowMs() - t0;
    }
    if (p.transformer) {
      Tensor& sc = scores[bucket];
      if (sc.empty()) {
        sc = RandomTensor(p.heads * bucket, bucket, 0x5c0e + bucket).Reshape({p.heads, bucket, bucket});
      }
      const pit::ConstTensorView mask_view = mask != nullptr ? pit::ConstTensorView(*mask)
                                                             : pit::ConstTensorView();
      ScopedSpan span(tracer, "SoftmaxInto", "ops");
      const double t0 = NowMs();
      for (int64_t l = 0; l < p.layers; ++l) {
        pit::SoftmaxInto(sc, mask != nullptr ? &mask_view : nullptr, sc);
      }
      r.softmax_ms += NowMs() - t0;
    }
    if (packed) {
      ScopedSpan span(tracer, "SWriteRowsFrom", "sread_swrite");
      const double t0 = NowMs();
      int64_t off = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        pit::SWriteRowsFrom(*y, off, std::span<const int64_t>(iota.data(), lens[i]),
                            outputs[i]);
        off += lens[i];
      }
      r.scatter_ms += NowMs() - t0;
      r.moved_bytes += 2.0 * static_cast<double>(sum * h) * sizeof(float);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (records[batch[i]].status == ServeStatus::kOk &&
          HashTensor(outputs[i]) != records[batch[i]].hash) {
        ++r.mismatches;
      }
    }
    ++r.bucket_forwards[bucket];
    ++r.forwards;
    r.computed_rows += bucket;
    if (static_cast<int>(probes.size()) < kSpeedupProbeForwards) {
      probes.push_back({key, Tensor(*x_in), mask != nullptr ? Tensor(*mask) : Tensor()});
    }
  };

  for (const std::vector<size_t>& call : calls) {
    const size_t n = call.size();
    const size_t window = static_cast<size_t>(p.batch_window);
    for (size_t i0 = 0; i0 < n; i0 += window) {
      const size_t i_end = std::min(i0 + window, n);
      size_t b0 = i0;
      while (b0 < i_end) {
        size_t b1 = b0 + 1;
        if (packed) {
          int64_t sum = records[call[b0]].spec.tokens;
          while (b1 < i_end && sum + records[call[b1]].spec.tokens <= p.max_batch_tokens) {
            sum += records[call[b1]].spec.tokens;
            ++b1;
          }
        }
        forward_batch(std::vector<size_t>(call.begin() + b0, call.begin() + b1));
        b0 = b1;
      }
    }
  }

  // ParallelFor scaling of the first replayed forwards: 1 thread vs 2,
  // interleaved, median of repetitions.
  std::map<Key, typename Ops::Stream> probe_streams;
  for (const Probe& pr : probes) {
    if (!probe_streams.count(pr.key)) {
      probe_streams.emplace(pr.key, Ops::MakeStream(*stack, pr.key.first, pr.key.second));
    }
  }
  auto time_probes = [&](int threads) {
    pit::ScopedNumThreads scoped(threads);
    const double t0 = NowMs();
    for (const Probe& pr : probes) {
      Tensor out({pr.key.first, h});
      Ops::Forward(*stack, probe_streams.at(pr.key), pr.x, pr.mask.empty() ? nullptr : &pr.mask,
                   &out);
    }
    return NowMs() - t0;
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < 5; ++rep) {
    const double one = time_probes(1);
    const double two = time_probes(2);
    ratios.push_back(one / std::max(two, 1e-9));
  }
  r.speedup_2t = Median(ratios);
  return r;
}

// MatMulInto rate at the workload's FFN up-projection shape and per-stream
// thread width.
double GemmGflops(const ServingParams& p, int64_t rows) {
  pit::ScopedNumThreads scoped(std::max(1, p.threads / p.streams));
  const Tensor a = RandomTensor(rows, p.hidden, 0x6e33);
  const Tensor b = RandomTensor(p.hidden, p.ffn, 0x6e34);
  Tensor c({rows, p.ffn});
  std::vector<double> gflops;
  for (int rep = 0; rep < 21; ++rep) {
    const double t0 = NowMs();
    pit::MatMulInto(a, b, c);
    gflops.push_back(2.0 * rows * p.hidden * p.ffn / ((NowMs() - t0) * 1e6));
  }
  return Median(gflops);
}

// ---- The two workloads --------------------------------------------------------

struct MeasuredRun {
  std::vector<RequestRecord> records;
  std::vector<std::vector<size_t>> traced_calls;  // request indices per traced call
  std::vector<double> item_latency_ms;            // per request
  std::vector<double> queue_wait_ms;
  std::vector<double> call_ms;
  double late_ms_max = 0.0;
  double busy_ms = 0.0;     // the time throughput is taken over
  double rss_mb = 0.0;      // peak RSS at the end of the timed loop
  size_t traced_from = 0;   // first traced request (records.size() when untraced)
  EngineSnapshot traced_delta;
  pit::ServingEngineStats stats;
};

template <typename Stack>
void Finish(const ServingParams& p, const Args& args, Tracer& tracer, Session<Stack>& session,
            std::vector<double> setup_ms, double calib_before, MeasuredRun& m,
            RunResult* result) {
  std::vector<bool> ok;
  int64_t failed = 0;
  {
    pit::ScopedNumThreads oracle_threads(kOracleThreads);
    failed = CheckOutputs(*session.stack, p, m.records, &ok);
  }
  result->attempted = static_cast<int64_t>(m.records.size());
  result->failed = failed;
  result->correct = failed == 0;
  if (!args.trace) {
    RawRun& raw = result->raw;
    raw.setup_ms = std::move(setup_ms);
    raw.latency_ms = m.item_latency_ms;
    raw.ok.assign(ok.begin(), ok.end());
    raw.slo_ms = p.slo_ms;
    for (size_t i = 0; i < m.records.size(); ++i) {
      raw.tokens += ok[i] ? static_cast<double>(m.records[i].spec.tokens) : 0.0;
    }
    raw.busy_ms = m.busy_ms;
    raw.rss_mb = m.rss_mb;
    raw.calib_before = calib_before;
    raw.calib_after = CalibGemmGflops1t();
    raw.pool_width = p.threads;
    return;
  }
  std::map<std::string, double> v;
  result->Note(std::to_string(m.call_ms.size()) + " serving calls");
  // Traced run: per-layer metrics over the traced requests.
  const std::vector<double> untraced(m.item_latency_ms.begin(),
                                     m.item_latency_ms.begin() + m.traced_from);
  const std::vector<double> traced(m.item_latency_ms.begin() + m.traced_from,
                                   m.item_latency_ms.end());
  v["trace.overhead_ms_p50"] = Percentile(traced, 0.5) - Percentile(untraced, 0.5);
  v["driver.queue_wait_ms_p50"] = Percentile(m.queue_wait_ms, 0.5);
  v["driver.queue_wait_ms_p99"] = Percentile(m.queue_wait_ms, 0.99);
  v["driver.late_ms_max"] = m.late_ms_max;
  v["serving_engine.call_ms_p50"] = Percentile(m.call_ms, 0.5);
  v["serving_engine.call_ms_p99"] = Percentile(m.call_ms, 0.99);
  const EngineSnapshot& d = m.traced_delta;
  v["serving_engine.plan_hit_ratio"] =
      static_cast<double>(d.hits) / static_cast<double>(std::max<int64_t>(d.hits + d.misses, 1));
  v["serving_engine.plan_misses"] = static_cast<double>(d.misses);
  v["serving_engine.forwards"] = static_cast<double>(d.forwards);
  v["serving_engine.requests_per_forward"] =
      static_cast<double>(d.requests) / static_cast<double>(std::max<int64_t>(d.forwards, 1));
  v["serving_engine.packed_util"] =
      static_cast<double>(d.packed) / static_cast<double>(std::max<int64_t>(d.computed, 1));
  v["serving_engine.pool_arena_mb_hw"] =
      static_cast<double>(m.stats.pool_arena_bytes_highwater) / (1 << 20);
  v["serving_engine.failed"] = static_cast<double>(failed);
  v["serving_engine.retries"] = static_cast<double>(d.retries);

  const ReplayResult r = Replay<Stack>(p, m.traced_calls, m.records, tracer);
  if (r.bucket_forwards != d.bucket_forwards || r.mismatches != 0) {
    std::fprintf(stderr, "decomposition replay disagrees with the engine: %lld forwards vs %lld, "
                 "%lld output mismatches\n",
                 static_cast<long long>(r.forwards), static_cast<long long>(d.forwards),
                 static_cast<long long>(r.mismatches));
    result->correct = false;
  }
  result->Note("replay: " + std::to_string(r.forwards) + " forwards in " +
               std::to_string(r.bucket_forwards.size()) +
               " buckets, per-bucket counts equal to the engine's: " +
               (r.bucket_forwards == d.bucket_forwards ? "yes" : "no"));
  const double fw = static_cast<double>(std::max<int64_t>(r.forwards, 1));
  v["models.make_stream_ms_p50"] = Percentile(r.make_stream_ms, 0.5);
  v["models.forward_ms_per_ktok"] = r.forward_ms / (static_cast<double>(r.computed_rows) / 1000.0);
  v["execution_plan.compile_ms_p50"] = Percentile(r.compile_ms, 0.5);
  v["execution_plan.steps"] = static_cast<double>(r.steps);
  v["execution_plan.arena_mb"] = r.arena_mb;
  v["sread_swrite.pack_ms_per_forward"] = r.pack_ms / fw;
  v["sread_swrite.scatter_ms_per_forward"] = r.scatter_ms / fw;
  const double move_ms = r.pack_ms + r.scatter_ms;
  v["sread_swrite.gbps"] = move_ms > 0.0 ? r.moved_bytes / (move_ms * 1e6) : 0.0;
  v["parallel_for.forward_speedup_2t"] = r.speedup_2t;
  v["gemm.gflops"] = GemmGflops(p, std::max<int64_t>(1, r.computed_rows / std::max<int64_t>(r.forwards, 1)));
  v["ops.softmax_ms_per_forward"] = r.softmax_ms / fw;
  v["calib.gemm_gflops_1t"] = 0.5 * (calib_before + CalibGemmGflops1t());
  EmitMetrics(v, true, result);
}

}  // namespace

RunResult RunBertMnliOpen(const Args& args, Tracer& tracer) {
  const ServingParams& p = kBert;
  pit::SetNumThreads(p.threads);
  RunResult result;
  const double calib_before = CalibGemmGflops1t();

  std::vector<double> due;
  const std::vector<RequestSpec> specs = BertSchedule(args.seed, args.seconds, &due);
  const size_t n = specs.size();
  MeasuredRun m;
  m.records.resize(n);
  for (size_t i = 0; i < n; ++i) {
    m.records[i].spec = specs[i];
  }

  const Warmup warmup = WarmupCalls(p);
  Session<PlannedTransformerStack> session;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session = {};
    setup_ms.push_back(SetUp(p, warmup, &session));
  }

  // Trace mode: the first half of the schedule runs untraced, the second
  // half traced (spans, counter snapshots, replay).
  m.traced_from = args.trace ? n / 2 : n;
  std::vector<ServeRequest> inputs(n);
  EngineSnapshot at_trace_start;
  bool tracing = false;
  const OpenLoopStats ol = RunOpenLoop(
      due, [&](size_t i) { inputs[i].x = MakeInput(m.records[i].spec, p.hidden); },
      [&](size_t first, size_t last) {
        if (args.trace && !tracing && first >= m.traced_from) {
          tracing = true;
          m.traced_from = first;
          at_trace_start = Snap(session.engine->stats());
        }
        std::vector<ServeRequest> batch(std::make_move_iterator(inputs.begin() + first),
                                        std::make_move_iterator(inputs.begin() + last));
        Tracer off(false);
        ServeCall(*session.engine, batch, first, &m.records, tracing ? tracer : off);
        if (tracing) {
          std::vector<size_t> call(last - first);
          std::iota(call.begin(), call.end(), first);
          m.traced_calls.push_back(std::move(call));
        }
      });
  m.rss_mb = PeakRssMb();
  m.stats = session.engine->stats();
  if (args.trace) {
    m.traced_delta = Delta(at_trace_start, Snap(m.stats));
    m.queue_wait_ms.assign(ol.queue_wait_ms.begin() + m.traced_from, ol.queue_wait_ms.end());
  }
  m.item_latency_ms = ol.latency_ms;
  m.call_ms = ol.call_ms;
  m.late_ms_max = ol.late_ms_max;
  m.busy_ms = ol.end_ms - ol.start_ms;
  Finish(p, args, tracer, session, std::move(setup_ms), calib_before, m, &result);
  return result;
}

RunResult RunOptAlpacaOffline(const Args& args, Tracer& tracer) {
  const ServingParams& p = kOpt;
  pit::SetNumThreads(p.threads);
  RunResult result;
  const double calib_before = CalibGemmGflops1t();

  const Warmup warmup = WarmupCalls(p);
  Session<PlannedFfnStack> session;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session = {};
    setup_ms.push_back(SetUp(p, warmup, &session));
  }

  // Closed loop: back-to-back calls of kOptRequestsPerCall requests until the
  // time is up.
  // Call c's requests depend only on (seed, c). In trace mode, calls that
  // start in the second half of the time are traced.
  MeasuredRun m;
  m.traced_from = std::numeric_limits<size_t>::max();
  EngineSnapshot at_trace_start;
  const double start = NowMs();
  for (uint64_t c = 0; NowMs() - start < args.seconds * 1000.0; ++c) {
    const size_t first = m.records.size();
    std::vector<ServeRequest> batch;
    for (const RequestSpec& spec : OptCall(args.seed, c)) {
      batch.emplace_back().x = MakeInput(spec, p.hidden);
      m.records.push_back({spec});
    }
    const bool traced = args.trace && NowMs() - start >= args.seconds * 500.0;
    if (traced && m.traced_calls.empty()) {
      m.traced_from = first;
      at_trace_start = Snap(session.engine->stats());
    }
    Tracer off(false);
    const double t0 = NowMs();
    ServeCall(*session.engine, batch, first, &m.records, traced ? tracer : off);
    const double call = NowMs() - t0;
    m.call_ms.push_back(call);
    m.busy_ms += call;
    for (size_t i = first; i < m.records.size(); ++i) {
      m.item_latency_ms.push_back(call);
    }
    if (traced) {
      std::vector<size_t> ids(kOptRequestsPerCall);
      std::iota(ids.begin(), ids.end(), first);
      m.traced_calls.push_back(std::move(ids));
    }
  }
  m.rss_mb = PeakRssMb();
  m.stats = session.engine->stats();
  if (args.trace) {
    m.traced_from = std::min(m.traced_from, m.records.size());
    m.traced_delta = Delta(at_trace_start, Snap(m.stats));
  }
  Finish(p, args, tracer, session, std::move(setup_ms), calib_before, m, &result);
  return result;
}

std::vector<int64_t> ServingCountersForSelfCheck(bool bert, uint64_t seed) {
  const ServingParams& p = bert ? kBert : kOpt;
  pit::ScopedNumThreads threads(p.threads);
  std::vector<RequestSpec> specs;
  if (bert) {
    std::vector<double> due;
    specs = BertSchedule(seed, 1.0, &due);
    specs.resize(40);
  } else {
    for (uint64_t c = 0; c < 2; ++c) {
      for (const RequestSpec& spec : OptCall(seed, c)) {
        specs.push_back(spec);
      }
    }
  }
  std::vector<int64_t> counters;
  for (const RequestSpec& spec : specs) {
    counters.push_back(spec.tokens);
    counters.push_back(static_cast<int64_t>(HashTensor(MakeInput(spec, p.hidden))));
  }
  auto serve = [&](auto& session) {
    const EngineSnapshot before = Snap(session.engine->stats());
    // 1:1 traffic one request per call; packed traffic 64 per call.
    const size_t per_call = bert ? 1 : kOptRequestsPerCall;
    for (size_t first = 0; first < specs.size(); first += per_call) {
      std::vector<ServeRequest> batch;
      for (size_t i = first; i < std::min(specs.size(), first + per_call); ++i) {
        ServeRequest r;
        r.x = MakeInput(specs[i], p.hidden);
        batch.push_back(std::move(r));
      }
      session.engine->ServeWithStatus(batch);
    }
    const EngineSnapshot d = Delta(before, Snap(session.engine->stats()));
    counters.push_back(d.forwards);
    counters.push_back(d.packed);
    counters.push_back(d.computed);
    // With one stream the pool sequence is fixed; with two, which stream's
    // pool a request meets depends on claim timing, so only the sum counts.
    counters.push_back(d.hits + d.misses);
    if (p.streams == 1) {
      counters.push_back(d.hits);
      counters.push_back(d.misses);
    }
    for (const auto& [bucket, forwards] : d.bucket_forwards) {
      counters.push_back(bucket);
      counters.push_back(forwards);
    }
  };
  const Warmup warmup = WarmupCalls(p);
  if (bert) {
    Session<PlannedTransformerStack> session;
    SetUp(p, warmup, &session);
    serve(session);
  } else {
    Session<PlannedFfnStack> session;
    SetUp(p, warmup, &session);
    serve(session);
  }
  return counters;
}

}  // namespace perfbench
