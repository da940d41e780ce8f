// keypad_bench — the repository benchmark.
//
//   keypad_bench --workload compile|fleet|keytier|theft [--seed N]
//                [--seconds S] [--trace 0|1] [--out DIR]
//
// Runs three untraced repetitions of the workload, each in a fresh child
// process (this binary re-executed with --child), plus — with --trace 1 or
// --out — one traced repetition. Host metrics are the median of the
// untraced repetitions; peak RSS is each child's ru_maxrss from wait4, so
// no repetition inherits another's heap. Virtual-time metrics must be
// bit-identical across all repetitions, the traced one included.
//
// Prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 when any correctness gate fails.

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "benchmark/metrics.h"
#include "benchmark/workloads.h"

extern char** environ;

namespace keypad::bench {
namespace {

constexpr int kReps = 3;
// The whole invocation must finish well inside three minutes.
constexpr double kBudgetSeconds = 170;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::string out;
  bool child = false;
  bool traced = false;
  std::string spans;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: keypad_bench --workload "
               "compile|fleet|keytier|theft [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\n",
               error.c_str());
  std::exit(2);
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--child") {
      args.child = true;
      continue;
    }
    if (flag == "--traced") {
      args.traced = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &n)) Usage("bad --seed");
      args.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 60, &n)) Usage("--seconds must be 1..60");
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) Usage("--trace must be 0 or 1");
      args.trace = n == 1;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!IsWorkload(args.workload)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// --- Child side. -------------------------------------------------------------

int RunChild(const Args& args) {
  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.traced = args.traced;
  config.spans_path = args.spans;
  RepResult r = RunWorkload(config);
  std::printf("setup_cpu_s %.17g\n", r.setup_cpu_s);
  std::printf("measured_cpu_s %.17g\n", r.measured_cpu_s);
  std::printf("measured_wall_s %.17g\n", r.measured_wall_s);
  std::printf("attempted %llu\n", static_cast<unsigned long long>(r.attempted));
  std::printf("failed %llu\n", static_cast<unsigned long long>(r.failed));
  for (const auto& [name, value] : r.metrics) {
    std::printf("metric %s %.17g\n", name.c_str(), value);
  }
  for (const Gate& gate : r.gates) {
    std::printf("gate %s %d %s\n", gate.name.c_str(), gate.ok ? 1 : 0,
                gate.detail.c_str());
  }
  for (const std::string& note : r.notes) {
    std::printf("note %s\n", note.c_str());
  }
  std::fflush(stdout);
  // Tearing down a 20k-device fleet is not part of any measurement.
  std::_Exit(0);
}

// --- Parent side. ------------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ChildRun {
  bool ok = false;
  std::string error;
  double peak_rss_mb = 0;
  RepResult result;
};

bool ParseChild(const std::string& output, RepResult* r) {
  std::istringstream in(output);
  std::string line;
  bool saw_measured = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "setup_cpu_s") {
      fields >> r->setup_cpu_s;
    } else if (tag == "measured_cpu_s") {
      fields >> r->measured_cpu_s;
      saw_measured = true;
    } else if (tag == "measured_wall_s") {
      fields >> r->measured_wall_s;
    } else if (tag == "attempted") {
      fields >> r->attempted;
    } else if (tag == "failed") {
      fields >> r->failed;
    } else if (tag == "metric") {
      std::string name;
      double value = 0;
      fields >> name >> value;
      r->metrics.emplace_back(name, value);
    } else if (tag == "gate") {
      Gate gate;
      int ok = 0;
      fields >> gate.name >> ok;
      gate.ok = ok == 1;
      std::getline(fields, gate.detail);
      if (!gate.detail.empty() && gate.detail[0] == ' ') {
        gate.detail.erase(0, 1);
      }
      r->gates.push_back(gate);
    } else if (tag == "note") {
      r->notes.push_back(line.substr(5));
    }
  }
  return saw_measured;
}

ChildRun Spawn(const Args& args, bool traced, const std::string& spans,
               double deadline) {
  ChildRun run;
  int fds[2];
  if (pipe(fds) != 0) {
    run.error = "pipe failed";
    return run;
  }
  std::vector<std::string> argv_s = {
      "keypad_bench", "--child",  "--workload", args.workload,
      "--seed",       std::to_string(args.seed), "--seconds",
      std::to_string(args.seconds)};
  if (traced) {
    argv_s.push_back("--traced");
    if (!spans.empty()) {
      argv_s.push_back("--spans");
      argv_s.push_back(spans);
    }
  }
  std::vector<char*> argv;
  for (std::string& s : argv_s) {
    argv.push_back(s.data());
  }
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    run.error = "fork failed";
    return run;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string output;
  char buf[4096];
  bool timed_out = false;
  for (;;) {
    const double left = deadline - NowSeconds();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(std::min(left, 1.0) * 1000));
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0) {
      continue;
    }
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      break;  // EOF: the child closed stdout (it is exiting).
    }
    output.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (timed_out) {
    kill(pid, SIGKILL);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
  if (timed_out) {
    run.error = "repetition exceeded the time budget";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    run.error = "repetition exited abnormally (status " +
                std::to_string(status) + ")";
  } else if (!ParseChild(output, &run.result)) {
    run.error = "repetition printed no result";
  } else {
    run.ok = true;
  }
  return run;
}

// Children must see the same environment on every run: the KEYPAD_*
// ablation knobs would silently change what is measured.
void ClearKeypadEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    if (entry.rfind("KEYPAD_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

const double* Lookup(const RepResult& r, const std::string& name) {
  for (const auto& [n, v] : r.metrics) {
    if (n == name) {
      return &v;
    }
  }
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Value {
  double value = 0;
  double min = 0;
  double max = 0;
  bool present = false;
};

struct Summary {
  std::map<std::string, Value> values;
  std::vector<Gate> gates;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double measured_cpu_s = 0;  // Median over the untraced repetitions.
  double measured_wall_s = 0;
};

// Folds the repetitions into one value per metric and adds the
// determinism gates. `traced` is null when no traced repetition ran.
Summary Summarize(const std::vector<ChildRun>& reps, const ChildRun* traced) {
  Summary sum;
  for (size_t k = 0; k < reps.size(); ++k) {
    for (const Gate& gate : reps[k].result.gates) {
      sum.gates.push_back({gate.name + " (rep " + std::to_string(k + 1) + ")",
                           gate.ok, gate.detail});
    }
  }
  if (traced != nullptr) {
    for (const Gate& gate : traced->result.gates) {
      sum.gates.push_back({gate.name + " (traced)", gate.ok, gate.detail});
    }
  }
  std::string diverged;
  std::string traced_diverged;
  for (const MetricDef& def : Catalog()) {
    Value v;
    std::vector<double> samples;
    for (const ChildRun& rep : reps) {
      const double* x = def.name == std::string("peak_rss_mb")
                            ? &rep.peak_rss_mb
                            : Lookup(rep.result, def.name);
      if (x != nullptr) {
        samples.push_back(*x);
      }
    }
    const double* t =
        traced != nullptr ? Lookup(traced->result, def.name) : nullptr;
    if (samples.size() == reps.size()) {
      v.present = true;
      v.min = *std::min_element(samples.begin(), samples.end());
      v.max = *std::max_element(samples.begin(), samples.end());
      if (def.kind == Kind::kHost) {
        v.value = Median(samples);
      } else {
        v.value = samples[0];
        if (v.min != v.max) {
          diverged += std::string(" ") + def.name;
        }
        if (t != nullptr && *t != v.value) {
          traced_diverged += std::string(" ") + def.name;
        }
      }
    } else if (traced != nullptr) {
      // A traced run reports every metric; one no repetition emitted
      // belongs to a layer that did no work on this workload.
      v.present = true;
      v.value = v.min = v.max = t != nullptr ? *t : 0;
    }
    sum.values[def.name] = v;
  }
  std::vector<double> cpu;
  std::vector<double> wall;
  for (const ChildRun& rep : reps) {
    if (rep.result.attempted != reps[0].result.attempted ||
        rep.result.failed != reps[0].result.failed) {
      diverged += " attempted/failed";
    }
    cpu.push_back(rep.result.measured_cpu_s);
    wall.push_back(rep.result.measured_wall_s);
    sum.attempted += rep.result.attempted;
    sum.failed += rep.result.failed;
  }
  sum.measured_cpu_s = Median(cpu);
  sum.measured_wall_s = Median(wall);
  sum.gates.push_back({"virtual_bit_identical", diverged.empty(),
                       diverged.empty() ? "across the untraced repetitions"
                                        : "diverged:" + diverged});
  if (traced != nullptr) {
    sum.attempted += traced->result.attempted;
    sum.failed += traced->result.failed;
    sum.gates.push_back({"traced_virtual_identical", traced_diverged.empty(),
                         traced_diverged.empty()
                             ? "traced run equals the untraced ones"
                             : "diverged:" + traced_diverged});
  }
  for (const Gate& gate : sum.gates) {
    sum.correct = sum.correct && gate.ok;
  }
  return sum;
}

void PrintReport(const Args& args, const std::vector<ChildRun>& reps,
                 const ChildRun* traced, const Summary& sum) {
  std::printf("== %s  seed %llu  --seconds %d  (%d untraced repetitions%s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, kReps, traced != nullptr ? " + 1 traced" : "");
  std::printf("measured phase: %.3f CPU s median (wall %.3f s, context only); "
              "%llu ops per repetition, %llu failed\n",
              sum.measured_cpu_s, sum.measured_wall_s,
              static_cast<unsigned long long>(reps[0].result.attempted),
              static_cast<unsigned long long>(reps[0].result.failed));
  for (const std::string& note : reps[0].result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  if (traced != nullptr) {
    const double overhead = traced->result.measured_cpu_s - sum.measured_cpu_s;
    std::printf(
        "tracing overhead: %.3f CPU s (%.1f%% of the untraced median)\n",
        overhead, 100 * overhead / sum.measured_cpu_s);
    for (const std::string& note : traced->result.notes) {
      if (note.find("layer self CPU") != std::string::npos) {
        std::printf("  %s\n", note.c_str());
      }
    }
  }
  std::printf("%-36s %16s %-9s %-7s %-6s %s\n", "metric", "value", "unit",
              "kind", "better", "min .. max over repetitions");
  for (const MetricDef& def : Catalog()) {
    const Value& v = sum.values.at(def.name);
    if (!v.present) {
      continue;
    }
    std::printf("%-36s %16.6g %-9s %-7s %-6s %.6g .. %.6g%s\n", def.name,
                v.value, def.unit, def.kind == Kind::kHost ? "host" : "virtual",
                def.higher_is_better ? "higher" : "lower", v.min, v.max,
                def.end_to_end ? "  [end-to-end]" : "");
  }
  for (const Gate& gate : sum.gates) {
    if (!gate.ok) {
      std::printf("GATE FAILED: %s — %s\n", gate.name.c_str(),
                  gate.detail.c_str());
    }
  }
  std::printf("gates: %s\n", sum.correct ? "all passed" : "FAILED");
}

// Every metric with its kind and spread, the gates and the tracing
// overhead, as DIR/<workload>-seed<N>.json.
void WriteSummary(const std::string& path, const Args& args,
                  const Summary& sum, double tracing_overhead_s) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"workload\": %s, \"seed\": %llu, \"seconds\": %d,\n"
               " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
               " \"tracing_overhead_cpu_s\": %s,\n \"metrics\": {",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               sum.correct ? "true" : "false",
               static_cast<unsigned long long>(sum.attempted),
               static_cast<unsigned long long>(sum.failed),
               Num(tracing_overhead_s).c_str());
  const char* sep = "";
  for (const MetricDef& def : Catalog()) {
    const Value& v = sum.values.at(def.name);
    std::fprintf(f,
                 "%s\n  %s: {\"value\": %s, \"unit\": %s, \"kind\": %s, "
                 "\"end_to_end\": %s, \"min\": %s, \"max\": %s}",
                 sep, JsonString(def.name).c_str(), Num(v.value).c_str(),
                 JsonString(def.unit).c_str(),
                 def.kind == Kind::kHost ? "\"host\"" : "\"virtual\"",
                 def.end_to_end ? "true" : "false", Num(v.min).c_str(),
                 Num(v.max).c_str());
    sep = ",";
  }
  std::fprintf(f, "},\n \"gates\": [");
  sep = "";
  for (const Gate& gate : sum.gates) {
    std::fprintf(f, "%s\n  {\"name\": %s, \"ok\": %s, \"detail\": %s}", sep,
                 JsonString(gate.name).c_str(), gate.ok ? "true" : "false",
                 JsonString(gate.detail).c_str());
    sep = ",";
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int RunParent(const Args& args) {
  const double deadline = NowSeconds() + kBudgetSeconds;
  ClearKeypadEnvironment();
  std::string prefix;
  if (!args.out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    if (ec) {
      Usage("cannot create --out directory " + args.out);
    }
    prefix = args.out + "/" + args.workload + "-seed" +
             std::to_string(args.seed);
  }

  std::vector<ChildRun> reps;
  for (int k = 0; k < kReps; ++k) {
    reps.push_back(Spawn(args, false, "", deadline));
    if (!reps.back().ok) {
      std::fprintf(stderr, "%s repetition %d: %s\n", args.workload.c_str(),
                   k + 1, reps.back().error.c_str());
      return 1;
    }
  }
  ChildRun traced;
  const bool run_traced = args.trace || !args.out.empty();
  if (run_traced) {
    traced = Spawn(args, true, prefix.empty() ? "" : prefix + "-spans.tsv",
                   deadline);
    if (!traced.ok) {
      std::fprintf(stderr, "%s traced repetition: %s\n", args.workload.c_str(),
                   traced.error.c_str());
      return 1;
    }
  }

  const ChildRun* traced_run = run_traced ? &traced : nullptr;
  const Summary sum = Summarize(reps, traced_run);
  PrintReport(args, reps, traced_run, sum);
  if (!prefix.empty()) {
    WriteSummary(prefix + ".json", args, sum,
                 traced.result.measured_cpu_s - sum.measured_cpu_s);
    std::printf("wrote %s.json and %s-spans.tsv\n", prefix.c_str(),
                prefix.c_str());
  }

  std::string metrics;
  for (const MetricDef& def : Catalog()) {
    if (def.end_to_end == args.trace) {
      continue;  // --trace 0 carries the end-to-end set, --trace 1 the rest.
    }
    metrics += std::string(metrics.empty() ? "" : ", ") +
               JsonString(def.name) + ": {\"value\": " +
               Num(sum.values.at(def.name).value) +
               ", \"unit\": " + JsonString(def.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              sum.correct ? "true" : "false",
              static_cast<unsigned long long>(sum.attempted),
              static_cast<unsigned long long>(sum.failed), metrics.c_str());
  std::fflush(stdout);
  return sum.correct ? 0 : 1;
}

}  // namespace
}  // namespace keypad::bench

int main(int argc, char** argv) {
  using namespace keypad::bench;
  Args args = Parse(argc, argv);
  return args.child ? RunChild(args) : RunParent(args);
}
