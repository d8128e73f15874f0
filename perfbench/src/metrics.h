// The benchmark's metric catalogue. BENCHMARK.json lists the same names and
// units; perfbench/run.py refuses a result whose metrics differ from it.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The three call sites of the pit_dynamic_sparse workload.
inline constexpr const char* kPitSites[] = {"pad_rows", "relu_cols", "relu_unstructured"};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// End-to-end metrics over the pooled raw samples of a run's processes:
// setup_s is the median set-up, latencies are nearest-rank percentiles of
// all items, slo_attain and throughput pool counts and times, peak_rss_mb is
// the largest process peak.
std::map<std::string, double> EndToEndValues(const std::vector<RawRun>& parts);

// Text form of a RawRun, one "raw <field> <values...>" line per field, which
// a child process prints and its parent parses back.
std::string RawRunText(const RawRun& raw);
bool ParseRawRun(const std::string& text, RawRun* raw);

// Appends the untraced (end-to-end) or traced (per-layer) catalogue to
// `result` in catalogue order. A metric a workload does not exercise reads 0:
// that is the prediction for the layer that workload bypasses.
void EmitMetrics(const std::map<std::string, double>& values, bool trace, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
