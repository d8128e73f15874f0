// pit_dynamic_sparse: a closed-loop, single-thread stream of
// PitCompiler::SparseMatmulInto calls, each on a freshly generated sparsity
// pattern, over three call sites with their own PitKernelHandle. Detection,
// kernel selection, the JIT cache and the gather kernels do all the work;
// the serving engine and plan executor do none.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "metrics.h"
#include "open_loop.h"
#include "pit/common/parallel_for.h"
#include "pit/core/compiler.h"
#include "pit/core/kernel_selection.h"
#include "pit/core/sparse_kernel.h"
#include "pit/gpusim/device.h"
#include "pit/sparse/coverage.h"
#include "pit/tensor/ops.h"

namespace perfbench {
namespace {

using pit::Tensor;

constexpr int kSetupReps = 9;
constexpr int kSites = 3;
constexpr double kSloMs = 20.0;  // per-op latency limit behind slo_attain

// Site geometry (perfbench/README.md gives the reasons).
constexpr int64_t kPadSeqs = 16, kPadLen = 128, kHidden = 256, kFfn = 1024, kOptTokens = 512;
constexpr double kMnliMean = 39.0, kMnliSigma = 0.45;
constexpr int64_t kMicroRows = 32;
constexpr double kColsSparsityLo = 0.90, kColsSparsityHi = 0.98;
constexpr double kUnstructuredSparsity = 0.99;

enum Site { kPadRows = 0, kReluCols = 1, kReluUnstructured = 2 };

// Fixed operands of the three sites: weights, and dense value sources the
// per-op patterns select from.
struct Operands {
  Tensor w_up = RandomTensor(kHidden, kFfn, 0x3001, -0.1f, 0.1f);
  Tensor w_down = RandomTensor(kFfn, kHidden, 0x3002, -0.1f, 0.1f);
  Tensor pad_src = RandomTensor(kPadSeqs * kPadLen, kHidden, 0x3003);
  Tensor relu_src = RandomTensor(kOptTokens, kFfn, 0x3004, 0.01f, 1.0f);  // post-ReLU values

  const Tensor& Weight(int site) const { return site == kPadRows ? w_up : w_down; }
  int64_t Rows(int site) const { return site == kPadRows ? kPadSeqs * kPadLen : kOptTokens; }
  int64_t Cols(int site) const { return site == kPadRows ? kHidden : kFfn; }
};

// Fills `a` with op `seed`'s fresh pattern for `site`; returns its real
// (unpadded) token rows.
int64_t MakeOperand(const Operands& ops, int site, uint64_t seed, Tensor* a) {
  std::fill(a->data(), a->data() + a->size(), 0.0f);
  InputRng rng(seed);
  const int64_t cols = ops.Cols(site);
  if (site == kPadRows) {
    int64_t real = 0;
    for (int64_t s = 0; s < kPadSeqs; ++s) {
      const int64_t len = rng.LogNormalLen(kMnliMean, kMnliSigma, 4, kPadLen);
      const int64_t off = s * kPadLen * cols;
      std::memcpy(a->data() + off, ops.pad_src.data() + off,
                  static_cast<size_t>(len * cols) * sizeof(float));
      real += len;
    }
    return real;
  }
  if (site == kReluCols) {
    const double sparsity = kColsSparsityLo + (kColsSparsityHi - kColsSparsityLo) * rng.Uniform();
    for (int64_t br = 0; br < kOptTokens / kMicroRows; ++br) {
      for (int64_t c = 0; c < cols; ++c) {
        if (rng.Uniform() >= sparsity) {
          for (int64_t r = br * kMicroRows; r < (br + 1) * kMicroRows; ++r) {
            a->At(r, c) = ops.relu_src.At(r, c);
          }
        }
      }
    }
    return kOptTokens;
  }
  // Unstructured: geometric gaps between nonzeros.
  const double log_keep = std::log(kUnstructuredSparsity);
  for (int64_t i = static_cast<int64_t>(std::log(std::max(rng.Uniform(), 1e-300)) / log_keep);
       i < a->size();
       i += 1 + static_cast<int64_t>(std::log(std::max(rng.Uniform(), 1e-300)) / log_keep)) {
    (*a)[i] = ops.relu_src[i];
  }
  return kOptTokens;
}

// The kernel the compiler selected, as a stand-alone call.
struct KernelChoice {
  bool fallback_dense = false;
  bool k_axis = false;
  int64_t block_m = 0;
};

KernelChoice ChoiceOf(const pit::PitKernelHandle& handle) {
  const pit::PitMatmulPlan& best = handle.selection.best;
  return {best.fallback_dense, best.rule.axis == pit::MatmulAxis::kK, best.rule.dense_tile.m};
}

void RunKernel(const KernelChoice& k, const Tensor& a, const Tensor& b, Tensor* c) {
  if (k.fallback_dense) {
    pit::MatMulInto(a, b, *c);
  } else if (k.k_axis) {
    pit::PitKGatherMatmulInto(a, b, k.block_m, *c);
  } else {
    pit::PitRowGatherMatmulInto(a, b, *c);
  }
}

struct OpRecord {
  int site = 0;
  uint64_t seed = 0;
  int64_t real_rows = 0;
  double ms = 0.0;
  uint64_t hash = 0;
  KernelChoice kernel;
  bool ok = false;
};

// Oracle for one op, run after the timed loop: pad_rows must be bitwise
// equal to MatMul; the K-axis sites re-run the recorded kernel (whose hash
// must match the timed output) and must sit within the forward-error
// envelope 2 (k + 2) eps sum_p |a_ip b_pj| of MatMul.
bool CheckOp(const Operands& ops, const OpRecord& op, Tensor* a, Tensor* got, Tensor* want) {
  MakeOperand(ops, op.site, op.seed, a);
  const Tensor& b = ops.Weight(op.site);
  pit::MatMulInto(*a, b, *want);
  if (op.site == kPadRows) {
    return HashTensor(*want) == op.hash;
  }
  RunKernel(op.kernel, *a, b, got);
  if (HashTensor(*got) != op.hash) {
    return false;
  }
  const int64_t m = a->dim(0), k = a->dim(1), n = b.dim(1);
  constexpr double kEps = 1.19209290e-07;
  std::vector<double> abs_sum(static_cast<size_t>(n));
  for (int64_t i = 0; i < m; ++i) {
    std::fill(abs_sum.begin(), abs_sum.end(), 0.0);
    for (int64_t p = 0; p < k; ++p) {
      const double av = std::abs(static_cast<double>(a->At(i, p)));
      if (av == 0.0) {
        continue;
      }
      for (int64_t j = 0; j < n; ++j) {
        abs_sum[static_cast<size_t>(j)] += av * std::abs(static_cast<double>(b.At(p, j)));
      }
    }
    for (int64_t j = 0; j < n; ++j) {
      const double tol = 2.0 * static_cast<double>(k + 2) * kEps * abs_sum[static_cast<size_t>(j)] + 1e-12;
      if (std::abs(static_cast<double>(got->At(i, j)) - static_cast<double>(want->At(i, j))) > tol) {
        return false;
      }
    }
  }
  return true;
}

// Per-site timings of a traced op's stand-alone calls.
struct SiteTrace {
  std::vector<double> dispatch_ms, kernel_ms, dense_ms, covered;
  int64_t fallback = 0, ops = 0;
};

}  // namespace

RunResult RunPitDynamicSparse(const Args& args, Tracer& tracer) {
  pit::SetNumThreads(1);
  RunResult result;
  const double calib_before = CalibGemmGflops1t();
  const Operands ops;
  std::vector<Tensor> a_buf, out_buf;
  for (int s = 0; s < kSites; ++s) {
    a_buf.emplace_back(pit::Shape{ops.Rows(s), ops.Cols(s)});
    out_buf.emplace_back(pit::Shape{ops.Rows(s), ops.Weight(s).dim(1)});
  }
  // The fixed warm-up set: per site, the first operands of a fixed seed
  // stream that cover each of the site's common 5 % sparsity buckets (the
  // compiler's kernel-cache granularity), so steady state seldom meets a
  // kernel it has not selected yet. Operands are regenerated between timed
  // calls, so set-up time excludes input generation.
  std::vector<std::pair<int, uint64_t>> warm;  // (site, operand seed)
  for (int s = 0; s < kSites; ++s) {
    std::set<long> buckets;
    Tensor& a = a_buf[static_cast<size_t>(s)];
    for (uint64_t i = 0; i < 64; ++i) {
      const uint64_t seed = ItemSeed(0xfeed, static_cast<uint64_t>(s), i);
      MakeOperand(ops, s, seed, &a);
      if (buckets.insert(std::lround(a.SparsityRatio() * 20.0)).second) {
        warm.emplace_back(s, seed);
      }
    }
  }

  std::unique_ptr<pit::PitCompiler> compiler;
  pit::PitKernelHandle handles[kSites];
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    compiler.reset();
    for (pit::PitKernelHandle& h : handles) {
      h = pit::PitKernelHandle();
    }
    double t0 = NowMs();
    compiler = std::make_unique<pit::PitCompiler>(pit::V100());
    double ms = NowMs() - t0;
    for (const auto& [s, seed] : warm) {
      Tensor& a = a_buf[static_cast<size_t>(s)];
      MakeOperand(ops, s, seed, &a);
      t0 = NowMs();
      compiler->SparseMatmulInto(a, ops.Weight(s), out_buf[static_cast<size_t>(s)], &handles[s]);
      ms += NowMs() - t0;
    }
    setup_ms.push_back(ms);
  }

  // Timed loop. In trace mode the second half of the time is traced: each op
  // also times its selected kernel alone, dense MatMulInto and SelectKernel.
  std::vector<OpRecord> records;
  SiteTrace site_trace[kSites];
  std::vector<double> select_ms;
  size_t traced_from = std::numeric_limits<size_t>::max();
  int64_t compiled_at_trace = 0, hits_at_trace = 0;
  const double start = NowMs();
  for (uint64_t i = 0; NowMs() - start < args.seconds * 1000.0; ++i) {
    OpRecord op;
    op.site = static_cast<int>(i % kSites);
    op.seed = ItemSeed(args.seed, 5, i);
    Tensor& a = a_buf[static_cast<size_t>(op.site)];
    Tensor& out = out_buf[static_cast<size_t>(op.site)];
    const Tensor& b = ops.Weight(op.site);
    op.real_rows = MakeOperand(ops, op.site, op.seed, &a);
    const bool traced = args.trace && NowMs() - start >= args.seconds * 500.0;
    if (traced && traced_from > records.size()) {
      traced_from = records.size();
      compiled_at_trace = compiler->kernels_compiled();
      hits_at_trace = compiler->cache_hits();
    }
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    pit::PitDispatch d;
    {
      ScopedSpan span(t, "SparseMatmulInto", "pit_compiler", static_cast<int64_t>(i));
      const double t0 = NowMs();
      d = compiler->SparseMatmulInto(a, b, out, &handles[op.site]);
      op.ms = NowMs() - t0;
    }
    op.hash = HashTensor(out);
    op.kernel = ChoiceOf(handles[op.site]);
    if (traced) {
      SiteTrace& st = site_trace[op.site];
      ++st.ops;
      st.dispatch_ms.push_back(op.ms);
      st.covered.push_back(d.plan.covered_fraction);
      st.fallback += d.plan.fallback_dense ? 1 : 0;
      Tensor scratch({out.dim(0), out.dim(1)});
      {
        ScopedSpan span(t, "kernel", "sparse_kernel", static_cast<int64_t>(i));
        const double t0 = NowMs();
        RunKernel(op.kernel, a, b, &scratch);
        st.kernel_ms.push_back(NowMs() - t0);
      }
      {
        ScopedSpan span(t, "MatMulInto", "gemm", static_cast<int64_t>(i));
        const double t0 = NowMs();
        pit::MatMulInto(a, b, scratch);
        st.dense_ms.push_back(NowMs() - t0);
      }
      if (i % (8 * kSites) < kSites) {  // Algorithm 1 is slow: time one op in 8 per site
        const pit::MaskPattern pattern{pit::ConstTensorView(a)};
        ScopedSpan span(t, "SelectKernel", "kernel_selection", static_cast<int64_t>(i));
        const double t0 = NowMs();
        pit::SelectKernel(compiler->cost_model(), compiler->tile_database(), {&pattern},
                          a.dim(0), a.dim(1), b.dim(1));
        select_ms.push_back(NowMs() - t0);
      }
    }
    records.push_back(op);
  }
  const double rss_mb = PeakRssMb();

  // Oracle, untimed, with chunk-local buffers.
  pit::ScopedNumThreads oracle_threads(kOracleThreads);
  pit::ParallelFor(static_cast<int64_t>(records.size()), 1, [&](int64_t begin, int64_t end) {
    std::vector<Tensor> a, got, want;
    for (int s = 0; s < kSites; ++s) {
      a.emplace_back(pit::Shape{ops.Rows(s), ops.Cols(s)});
      got.emplace_back(pit::Shape{ops.Rows(s), ops.Weight(s).dim(1)});
      want.emplace_back(pit::Shape{ops.Rows(s), ops.Weight(s).dim(1)});
    }
    for (int64_t i = begin; i < end; ++i) {
      OpRecord& op = records[static_cast<size_t>(i)];
      const size_t s = static_cast<size_t>(op.site);
      op.ok = CheckOp(ops, op, &a[s], &got[s], &want[s]);
    }
  });

  std::vector<double> latency;
  int64_t failed = 0;
  RawRun& raw = result.raw;
  for (const OpRecord& op : records) {
    latency.push_back(op.ms);
    raw.ok.push_back(op.ok ? 1 : 0);
    failed += op.ok ? 0 : 1;
    raw.tokens += op.ok ? static_cast<double>(op.real_rows) : 0.0;
    raw.busy_ms += op.ms;
    if (!op.ok) {
      std::fprintf(stderr, "oracle mismatch: site %s seed %llu\n", kPitSites[op.site],
                   static_cast<unsigned long long>(op.seed));
    }
  }
  result.attempted = static_cast<int64_t>(records.size());
  result.failed = failed;
  result.correct = failed == 0;
  if (!args.trace) {
    raw.setup_ms = std::move(setup_ms);
    raw.latency_ms = std::move(latency);
    raw.slo_ms = kSloMs;
    raw.rss_mb = rss_mb;
    raw.calib_before = calib_before;
    raw.calib_after = CalibGemmGflops1t();
    raw.pool_width = 1;
    return result;
  }

  std::map<std::string, double> v;
  traced_from = std::min(traced_from, records.size());
  const std::vector<double> untraced(latency.begin(), latency.begin() + traced_from);
  const std::vector<double> traced(latency.begin() + traced_from, latency.end());
  v["trace.overhead_ms_p50"] = Percentile(traced, 0.5) - Percentile(untraced, 0.5);
  int64_t traced_ops = 0, fallback = 0;
  for (int s = 0; s < kSites; ++s) {
    const SiteTrace& st = site_trace[s];
    const std::string site = kPitSites[s];
    const double dispatch = Percentile(st.dispatch_ms, 0.5);
    const double kernel = Percentile(st.kernel_ms, 0.5);
    v["pit_compiler.dispatch_ms_p50." + site] = dispatch;
    v["pit_compiler.overhead_ms." + site] = dispatch - kernel;
    v["sparse_kernel.speedup_vs_dense." + site] =
        kernel > 0.0 ? Percentile(st.dense_ms, 0.5) / kernel : 0.0;
    double covered = 0.0;
    for (const double c : st.covered) {
      covered += c;
    }
    v["sparse_kernel.covered_fraction." + site] =
        st.covered.empty() ? 0.0 : covered / static_cast<double>(st.covered.size());
    traced_ops += st.ops;
    fallback += st.fallback;
  }
  v["kernel_selection.select_ms"] = Percentile(select_ms, 0.5);
  v["pit_compiler.kernels_compiled"] =
      static_cast<double>(compiler->kernels_compiled() - compiled_at_trace);
  v["pit_compiler.cache_hit_ratio"] = static_cast<double>(compiler->cache_hits() - hits_at_trace) /
                                      static_cast<double>(std::max<int64_t>(traced_ops, 1));
  v["pit_compiler.fallback_dense_frac"] =
      static_cast<double>(fallback) / static_cast<double>(std::max<int64_t>(traced_ops, 1));
  // Dense GEMM rate over the sites' MatMulInto baselines.
  double flops = 0.0, dense_ms = 0.0;
  for (int s = 0; s < kSites; ++s) {
    for (const double ms : site_trace[s].dense_ms) {
      flops += 2.0 * static_cast<double>(ops.Rows(s) * ops.Cols(s) * ops.Weight(s).dim(1));
      dense_ms += ms;
    }
  }
  v["gemm.gflops"] = dense_ms > 0.0 ? flops / (dense_ms * 1e6) : 0.0;
  v["calib.gemm_gflops_1t"] = 0.5 * (calib_before + CalibGemmGflops1t());
  EmitMetrics(v, true, &result);
  return result;
}

std::vector<int64_t> PitCountersForSelfCheck(uint64_t seed) {
  pit::ScopedNumThreads one(1);
  const Operands ops;
  pit::PitCompiler compiler(pit::V100());
  pit::PitKernelHandle handles[kSites];
  std::vector<int64_t> counters;
  for (uint64_t i = 0; i < 30; ++i) {
    const int site = static_cast<int>(i % kSites);
    Tensor a({ops.Rows(site), ops.Cols(site)});
    Tensor out({ops.Rows(site), ops.Weight(site).dim(1)});
    counters.push_back(MakeOperand(ops, site, ItemSeed(seed, 5, i), &a));
    counters.push_back(static_cast<int64_t>(HashTensor(a)));
    compiler.SparseMatmulInto(a, ops.Weight(site), out, &handles[site]);
    counters.push_back(static_cast<int64_t>(HashTensor(out)));
  }
  counters.push_back(compiler.kernels_compiled());
  counters.push_back(compiler.cache_hits());
  return counters;
}

}  // namespace perfbench
