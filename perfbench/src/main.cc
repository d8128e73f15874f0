// perfbench: the repository's benchmark. One invocation runs one workload and
// prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs (--trace 1) the
// per-layer ones plus a Chrome trace and a self-time table per layer.
//
// An untraced run is split into kParts child processes of seconds / kParts
// each, run one after another, and its metrics are taken over their pooled
// samples. Speed on a shared VM differs by several percent from one process
// to the next for the whole life of the process (memory placement, host
// core), so pooling processes is what makes a run's tail steady.
//
// Usage: pitbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//        pitbench --selfcheck
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "metrics.h"
#include "pit/common/backend.h"
#include "pit/common/parallel_for.h"

extern char** environ;

namespace {

using perfbench::Args;
using perfbench::RunResult;
using perfbench::Tracer;

int Usage() {
  std::fprintf(stderr,
               "usage: pitbench --workload bert_mnli_open|opt_alpaca_offline|pit_dynamic_sparse "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       pitbench --selfcheck\n");
  return 2;
}

constexpr int kParts = 4;

// Runs part `part` of an untraced run in a child process of this binary and
// parses what it printed. Returns false if the child failed or printed no
// samples.
bool RunPart(const Args& args, int part, RunResult* result) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  const std::string seed = std::to_string(args.seed);
  const std::string seconds = std::to_string(args.seconds / kParts);
  const std::string part_arg = std::to_string(part);
  std::vector<std::string> argv_s = {"/proc/self/exe", "--workload", args.workload, "--seed",
                                     seed, "--seconds", seconds, "--trace", "0", "--part",
                                     part_arg};
  std::vector<char*> argv;
  for (std::string& a : argv_s) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  long long attempted = 0, failed = 0;
  int correct = 0;
  const size_t at = text.find("raw counts ");
  if (at == std::string::npos ||
      std::sscanf(text.c_str() + at, "raw counts %lld %lld %d", &attempted, &failed, &correct) != 3 ||
      !perfbench::ParseRawRun(text, &result->raw)) {
    return false;
  }
  result->attempted = attempted;
  result->failed = failed;
  result->correct = correct != 0;
  return true;
}

void PrintJson(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--part") {
      args.part = std::atoi(value);
    } else {
      return Usage();
    }
  }

  RunResult (*run)(const Args&, Tracer&) = nullptr;
  if (args.workload == "bert_mnli_open") {
    run = perfbench::RunBertMnliOpen;
  } else if (args.workload == "opt_alpaca_offline") {
    run = perfbench::RunOptAlpacaOffline;
  } else if (args.workload == "pit_dynamic_sparse") {
    run = perfbench::RunPitDynamicSparse;
  } else if (!selfcheck) {
    return Usage();
  }
  if (!selfcheck && !(args.seconds > 0.0)) {
    return Usage();
  }

  // A part process runs its share and prints its raw samples for the parent.
  if (args.part >= 0 && !args.trace) {
    Args part_args = args;
    part_args.seed = perfbench::ItemSeed(args.seed, 6, static_cast<uint64_t>(args.part));
    Tracer off(false);
    const RunResult r = run(part_args, off);
    std::printf("%sraw counts %lld %lld %d\n", perfbench::RawRunText(r.raw).c_str(),
                static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
                r.correct ? 1 : 0);
    return 0;
  }

  std::vector<std::string> log;
  const bool checks_ok = perfbench::SelfCheck(selfcheck, &log);
  for (const std::string& line : log) {
    std::printf("selfcheck: %s\n", line.c_str());
  }
  if (selfcheck) {
    std::printf("selfcheck=%s\n", checks_ok ? "ok" : "FAIL");
    return checks_ok ? 0 : 1;
  }

  Tracer tracer(args.trace);
  RunResult result;
  int pool_width = 0;
  if (args.trace) {
    result = run(args, tracer);
    pool_width = pit::NumThreads();
  } else {
    std::vector<perfbench::RawRun> parts;
    for (int k = 0; k < kParts; ++k) {
      RunResult part;
      if (!RunPart(args, k, &part)) {
        std::fprintf(stderr, "part %d of the run failed\n", k);
        return 1;
      }
      result.attempted += part.attempted;
      result.failed += part.failed;
      result.correct = result.correct && part.correct;
      result.Note("part " + std::to_string(k) + ": " + std::to_string(part.raw.latency_ms.size()) +
                  " items, calib.gemm_gflops_1t before/after " +
                  std::to_string(part.raw.calib_before) + " / " +
                  std::to_string(part.raw.calib_after));
      pool_width = part.raw.pool_width;
      parts.push_back(std::move(part.raw));
    }
    int64_t items = 0;
    for (const perfbench::RawRun& p : parts) {
      items += static_cast<int64_t>(p.latency_ms.size());
    }
    result.Note("samples: " + std::to_string(items) + " items in " + std::to_string(kParts) +
                " processes, " + std::to_string(perfbench::SamplesBeyond(items, 0.99)) +
                " beyond p99");
    perfbench::EmitMetrics(perfbench::EndToEndValues(parts), false, &result);
  }
  result.correct = result.correct && checks_ok;
  result.Note("fail_frac: " +
              std::to_string(static_cast<double>(result.failed) /
                             static_cast<double>(std::max<int64_t>(result.attempted, 1))) +
              " (" + std::to_string(result.failed) + "/" + std::to_string(result.attempted) + ")");

  std::printf("meta: workload=%s seed=%llu seconds=%g isa=%s nproc=%u pool_width=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              pit::IsaName(pit::ActiveIsa()), std::thread::hardware_concurrency(), pool_width);
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (args.trace) {
    const std::string base = args.trace_dir.empty() ? "" : args.trace_dir + "/" + args.workload;
    FILE* table = base.empty() ? nullptr : std::fopen((base + ".selftime.tsv").c_str(), "w");
    std::printf("self time per layer (ms):\n");
    for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
      std::printf("  %-18s %10.3f\n", layer.c_str(), ms);
      if (table != nullptr) {
        std::fprintf(table, "%s\t%.3f\n", layer.c_str(), ms);
      }
    }
    if (!base.empty()) {
      const std::string path = base + ".trace.json";
      const bool table_ok = table != nullptr && std::fclose(table) == 0;
      if (tracer.WriteChromeTrace(path) && table_ok) {
        std::printf("chrome trace: %s (%zu spans), self-time table: %s.selftime.tsv\n",
                    path.c_str(), tracer.spans().size(), base.c_str());
      } else {
        std::fprintf(stderr, "could not write the trace files under %s\n",
                     args.trace_dir.c_str());
        result.correct = false;
      }
    }
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
  PrintJson(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
