// The benchmark checks its own statistics before it reports any: percentile
// ranks, open-loop accounting under a generator stall, SLO accounting of failed
// requests, and same-seed determinism of inputs (and, in --selfcheck, of the
// workloads' deterministic counters).
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "open_loop.h"

namespace perfbench {
namespace {

bool Expect(bool ok, const std::string& what, std::vector<std::string>* log) {
  log->push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  return ok;
}

bool CheckPercentiles(std::vector<std::string>* log) {
  bool ok = true;
  ok &= Expect(Percentile({3, 1, 2}, 0.5) == 2, "p50 of an odd count is the middle value", log);
  ok &= Expect(Percentile({4, 1, 3, 2}, 0.5) == 2,
               "p50 of an even count is the lower middle value (nearest rank)", log);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  ok &= Expect(Percentile(hundred, 0.99) == 99 && Percentile(hundred, 1.0) == 100,
               "p99 of 1..100 is 99, p100 is 100", log);
  std::vector<double> odd(hundred.begin(), hundred.begin() + 101 - 2);  // 1..99
  ok &= Expect(Percentile(odd, 0.99) == 99 && Percentile(odd, 0.5) == 50,
               "p99 and p50 of 1..99", log);
  ok &= Expect(Percentile({}, 0.5) == 0.0, "an empty sample reads 0", log);
  ok &= Expect(SamplesBeyond(1000, 0.99) == 10 && SamplesBeyond(999, 0.99) == 9,
               "1000 samples leave 10 beyond p99, 999 leave 9", log);
  return ok;
}

// A 50 ms generator-side stall must show up in the latency of every request
// that fell due during it, because latency runs from the due time.
bool CheckOpenLoopStall(std::vector<std::string>* log) {
  constexpr double kGapMs = 5.0, kStallAtMs = 100.0, kStallMs = 50.0;
  std::vector<double> due;
  for (int i = 0; i < 60; ++i) {
    due.push_back(i * kGapMs);
  }
  auto prepare = [](size_t) {};
  auto serve = [](size_t, size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(1)); };
  OpenLoopOptions stalled;
  stalled.stall_at_ms = kStallAtMs;
  stalled.stall_ms = kStallMs;
  const OpenLoopStats s = RunOpenLoop(due, prepare, serve, stalled);
  bool raised = true;
  double worst = 0.0;
  for (size_t i = 0; i < due.size(); ++i) {
    if (due[i] >= kStallAtMs && due[i] < kStallAtMs + kStallMs) {
      // Sent no earlier than the stall's end: latency >= stall end - due.
      raised &= s.latency_ms[i] >= kStallAtMs + kStallMs - due[i] - 0.5;
      worst = std::max(worst, s.latency_ms[i]);
    }
  }
  return Expect(raised && worst >= kStallMs - 0.5,
                "a 50 ms generator stall raises the latency of every request due during it "
                "(worst " + std::to_string(worst) + " ms)",
                log);
}

bool CheckSloAccounting(std::vector<std::string>* log) {
  const std::vector<double> latency = {1.0, 2.0, 30.0, 1.0};
  const std::vector<bool> ok = {true, false, true, true};
  return Expect(SloAttainment(latency, ok, 20.0) == 0.5,
                "a failed request misses the SLO even when fast; attainment is over sent", log);
}

bool CheckInputDeterminism(std::vector<std::string>* log) {
  const bool same = HashTensor(RandomTensor(5, 7, 42)) == HashTensor(RandomTensor(5, 7, 42));
  const bool differs = HashTensor(RandomTensor(5, 7, 42)) != HashTensor(RandomTensor(5, 7, 43));
  InputRng a(ItemSeed(9, 1, 0)), b(ItemSeed(9, 1, 0));
  bool lens = true;
  for (int i = 0; i < 100; ++i) {
    lens &= a.LogNormalLen(39, 0.45, 4, 128) == b.LogNormalLen(39, 0.45, 4, 128);
  }
  const bool quantiles = std::abs(NormalQuantile(0.5)) < 1e-9 &&
                         std::abs(NormalQuantile(0.975) - 1.959963985) < 1e-6 &&
                         std::abs(NormalQuantile(0.001) + 3.090232306) < 1e-6;
  return Expect(same && differs && lens && quantiles,
                "the same seed gives identical inputs; normal quantiles are exact", log);
}

bool CheckCounterDeterminism(std::vector<std::string>* log) {
  bool ok = true;
  ok &= Expect(ServingCountersForSelfCheck(true, 7) == ServingCountersForSelfCheck(true, 7),
               "bert_mnli_open: same seed, same inputs, forwards and per-bucket counts", log);
  ok &= Expect(ServingCountersForSelfCheck(false, 7) == ServingCountersForSelfCheck(false, 7),
               "opt_alpaca_offline: same seed, same forwards, plan hits/misses, packed_util",
               log);
  ok &= Expect(PitCountersForSelfCheck(7) == PitCountersForSelfCheck(7),
               "pit_dynamic_sparse: same seed, same outputs, kernels_compiled and cache hits",
               log);
  ok &= Expect(PitCountersForSelfCheck(7) != PitCountersForSelfCheck(8),
               "pit_dynamic_sparse: another seed gives other inputs", log);
  return ok;
}

}  // namespace

bool SelfCheck(bool full, std::vector<std::string>* log) {
  bool ok = CheckPercentiles(log);
  ok &= CheckOpenLoopStall(log);
  ok &= CheckSloAccounting(log);
  ok &= CheckInputDeterminism(log);
  if (full) {
    ok &= CheckCounterDeterminism(log);
  }
  return ok;
}

}  // namespace perfbench
