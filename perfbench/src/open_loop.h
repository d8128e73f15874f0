// Open-loop request generator: sends each request at its scheduled due time
// whether or not earlier requests finished, so a slow system meets a growing
// queue instead of a slower client. Latency runs from the request's due time,
// not its send time, which charges every generator-side or service-side delay to
// the requests that were waiting behind it.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

struct OpenLoopStats {
  std::vector<double> latency_ms;     // per request: due -> the serving call returned
  std::vector<double> queue_wait_ms;  // per request: due -> its serving call started
  std::vector<double> call_ms;        // per serving call
  double late_ms_max = 0.0;  // worst oversleep of the generator waiting for a due time
  double start_ms = 0.0;     // schedule origin (NowMs clock)
  double end_ms = 0.0;       // last serving call returned
};

struct OpenLoopOptions {
  // Generator-side stall injection (self-check only): before sending the
  // first request due at or after `stall_at_ms`, the generator sleeps
  // `stall_ms`.
  double stall_at_ms = -1.0;
  double stall_ms = 0.0;
};

// Sleeps until 0.5 ms before the target, then spins: timer slack on a VM
// would otherwise make the generator itself late by tens of microseconds.
inline void SleepUntilMs(double target_ms) {
  constexpr double kSpinMs = 0.5;
  const double wait = target_ms - NowMs() - kSpinMs;
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
  }
  while (NowMs() < target_ms) {
  }
}

// `due_ms` is ascending, relative to the schedule origin. prepare(i) builds
// request i's input (called before the generator waits for its due time);
// serve(first, last) serves requests [first, last) in one call. Every request
// already due when a call starts joins that call.
template <typename Prepare, typename Serve>
OpenLoopStats RunOpenLoop(const std::vector<double>& due_ms, Prepare&& prepare, Serve&& serve,
                          const OpenLoopOptions& options = {}) {
  const size_t n = due_ms.size();
  OpenLoopStats stats;
  stats.latency_ms.assign(n, 0.0);
  stats.queue_wait_ms.assign(n, 0.0);
  stats.start_ms = NowMs() + 1.0;
  bool stall_pending = options.stall_ms > 0.0;
  size_t i = 0;
  while (i < n) {
    prepare(i);
    const double due = stats.start_ms + due_ms[i];
    if (NowMs() < due) {
      SleepUntilMs(due);
      stats.late_ms_max = std::max(stats.late_ms_max, NowMs() - due);
    }
    if (stall_pending && due_ms[i] >= options.stall_at_ms) {
      stall_pending = false;
      SleepUntilMs(NowMs() + options.stall_ms);
    }
    size_t j = i + 1;
    while (j < n && stats.start_ms + due_ms[j] <= NowMs()) {
      prepare(j);
      ++j;
    }
    const double call_start = NowMs();
    serve(i, j);
    const double call_end = NowMs();
    stats.call_ms.push_back(call_end - call_start);
    for (size_t k = i; k < j; ++k) {
      const double due_k = stats.start_ms + due_ms[k];
      stats.latency_ms[k] = call_end - due_k;
      stats.queue_wait_ms[k] = call_start - due_k;
    }
    stats.end_ms = call_end;
    i = j;
  }
  return stats;
}

// Share of `sent` requests that succeeded within `limit_ms`. A failed or
// rejected request (ok[i] false) is a miss whatever its latency.
inline double SloAttainment(const std::vector<double>& latency_ms, const std::vector<bool>& ok,
                            double limit_ms) {
  if (latency_ms.empty()) {
    return 0.0;
  }
  int64_t met = 0;
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    if (ok[i] && latency_ms[i] <= limit_ms) {
      ++met;
    }
  }
  return static_cast<double>(met) / static_cast<double>(latency_ms.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
