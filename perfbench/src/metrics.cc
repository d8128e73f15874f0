#include "metrics.h"

#include <algorithm>
#include <sstream>

#include "open_loop.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"slo_attain", "frac"},
      {"throughput_tok_s", "tok/s"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> s = {
        {"driver.queue_wait_ms_p50", "ms"},
        {"driver.queue_wait_ms_p99", "ms"},
        {"driver.late_ms_max", "ms"},
        {"serving_engine.call_ms_p50", "ms"},
        {"serving_engine.call_ms_p99", "ms"},
        {"serving_engine.plan_hit_ratio", "frac"},
        {"serving_engine.plan_misses", "count"},
        {"serving_engine.forwards", "count"},
        {"serving_engine.requests_per_forward", "req/forward"},
        {"serving_engine.packed_util", "frac"},
        {"serving_engine.pool_arena_mb_hw", "MiB"},
        {"serving_engine.failed", "count"},
        {"serving_engine.retries", "count"},
        {"models.make_stream_ms_p50", "ms"},
        {"models.forward_ms_per_ktok", "ms/ktok"},
        {"execution_plan.compile_ms_p50", "ms"},
        {"execution_plan.steps", "count"},
        {"execution_plan.arena_mb", "MiB"},
        {"sread_swrite.pack_ms_per_forward", "ms"},
        {"sread_swrite.scatter_ms_per_forward", "ms"},
        {"sread_swrite.gbps", "GB/s"},
        {"parallel_for.forward_speedup_2t", "x"},
        {"gemm.gflops", "GFLOP/s"},
        {"ops.softmax_ms_per_forward", "ms"},
    };
    for (const char* site : kPitSites) {
      s.push_back({std::string("pit_compiler.dispatch_ms_p50.") + site, "ms"});
      s.push_back({std::string("pit_compiler.overhead_ms.") + site, "ms"});
      s.push_back({std::string("sparse_kernel.speedup_vs_dense.") + site, "x"});
      s.push_back({std::string("sparse_kernel.covered_fraction.") + site, "frac"});
    }
    s.push_back({"kernel_selection.select_ms", "ms"});
    s.push_back({"pit_compiler.kernels_compiled", "count"});
    s.push_back({"pit_compiler.cache_hit_ratio", "frac"});
    s.push_back({"pit_compiler.fallback_dense_frac", "frac"});
    s.push_back({"calib.gemm_gflops_1t", "GFLOP/s"});
    s.push_back({"trace.overhead_ms_p50", "ms"});
    return s;
  }();
  return kSpecs;
}

std::map<std::string, double> EndToEndValues(const std::vector<RawRun>& parts) {
  std::vector<double> setup_ms, latency_ms;
  std::vector<bool> ok;
  double tokens = 0.0, busy_ms = 0.0, rss_mb = 0.0, slo_ms = 0.0;
  for (const RawRun& r : parts) {
    setup_ms.insert(setup_ms.end(), r.setup_ms.begin(), r.setup_ms.end());
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    ok.insert(ok.end(), r.ok.begin(), r.ok.end());
    tokens += r.tokens;
    busy_ms += r.busy_ms;
    rss_mb = std::max(rss_mb, r.rss_mb);
    slo_ms = r.slo_ms;
  }
  return {
      {"setup_s", Median(setup_ms) / 1000.0},
      {"latency_p50_ms", Percentile(latency_ms, 0.5)},
      {"latency_p99_ms", Percentile(latency_ms, 0.99)},
      {"slo_attain", SloAttainment(latency_ms, ok, slo_ms)},
      {"throughput_tok_s", busy_ms > 0.0 ? tokens / (busy_ms / 1000.0) : 0.0},
      {"peak_rss_mb", rss_mb},
  };
}

namespace {

template <typename T>
void AppendLine(std::ostringstream& out, const char* field, const std::vector<T>& values) {
  out << "raw " << field;
  for (const T& v : values) {
    out << ' ' << static_cast<double>(v);
  }
  out << '\n';
}

}  // namespace

std::string RawRunText(const RawRun& raw) {
  std::ostringstream out;
  out.precision(17);
  AppendLine(out, "setup_ms", raw.setup_ms);
  AppendLine(out, "latency_ms", raw.latency_ms);
  AppendLine(out, "ok", raw.ok);
  AppendLine(out, "scalars",
             std::vector<double>{raw.slo_ms, raw.tokens, raw.busy_ms, raw.rss_mb,
                                 raw.calib_before, raw.calib_after,
                                 static_cast<double>(raw.pool_width)});
  return out.str();
}

bool ParseRawRun(const std::string& text, RawRun* raw) {
  std::istringstream in(text);
  std::string line;
  bool scalars = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag, field;
    if (!(fields >> tag >> field) || tag != "raw") {
      continue;
    }
    std::vector<double> values;
    for (double v = 0.0; fields >> v;) {
      values.push_back(v);
    }
    if (field == "setup_ms") {
      raw->setup_ms = values;
    } else if (field == "latency_ms") {
      raw->latency_ms = values;
    } else if (field == "ok") {
      raw->ok.assign(values.begin(), values.end());
    } else if (field == "scalars" && values.size() == 7) {
      raw->slo_ms = values[0];
      raw->tokens = values[1];
      raw->busy_ms = values[2];
      raw->rss_mb = values[3];
      raw->calib_before = values[4];
      raw->calib_after = values[5];
      raw->pool_width = static_cast<int>(values[6]);
      scalars = true;
    }
  }
  return scalars && !raw->setup_ms.empty() && raw->latency_ms.size() == raw->ok.size();
}

void EmitMetrics(const std::map<std::string, double>& values, bool trace, RunResult* result) {
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = values.find(spec.name);
    result->Add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

}  // namespace perfbench
