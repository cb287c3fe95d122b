// perfbench: the end-to-end benchmark of driftsync.
//
//   perfbench --workload <sim_mesh|sim_lossy|serve_fleet> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Runs one workload in this process and prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}.  Untraced
// runs report the end-to-end metrics; traced runs report the per-layer
// metrics and write their spans to --trace-out.  Exit status 0 whenever a
// result was printed (correctness is in the JSON), 2 on bad arguments.
//
// setup_s is the fastest of kColdSetups cold set-ups: this process's own,
// timed from main(), and those of fresh processes of this binary started
// with --setup-only after the workload has finished.  A cold set-up cannot
// be cut into chunks, so this is the steadiness rule of measure.h applied
// to whole set-ups: other tenants only ever slow one down.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

extern char** environ;

namespace {

/// Cold set-ups per untraced run, this process's own included.
constexpr int kColdSetups = 5;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim_mesh|sim_lossy|serve_fleet> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--setup-only 1]\n",
               why);
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_trace_out = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) usage(("unexpected argument " + key).c_str());
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (key == "--setup-only") {
      if (value != "0" && value != "1") usage("--setup-only takes 0 or 1");
      opt.setup_only = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
      have_trace_out = true;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.trace && !have_trace_out) {
    opt.trace_out = ".bench_out/" + opt.workload + "-seed" +
                    std::to_string(opt.seed) + ".trace.json";
  }
  return opt;
}

/// The setup_s metric of `result`, or null.
perfbench::Metric* setup_metric(perfbench::RunResult& result) {
  for (perfbench::Metric& m : result.metrics) {
    if (m.name == "setup_s") return &m;
  }
  return nullptr;
}

/// Runs this binary's set-up for `opt` in a fresh process and returns the
/// set-up seconds it printed, or -1 if it did not finish cleanly.
double cold_setup_s(const perfbench::RunOptions& opt) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  std::vector<std::string> args = {
      "perfbench", "--workload", opt.workload, "--seed",
      std::to_string(opt.seed), "--seconds", "1", "--trace", "0",
      "--setup-only", "1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) return -1.0;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  return end != out.c_str() && seconds > 0.0 ? seconds : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  const perfbench::RunOptions opt = parse(argc, argv);
  perfbench::RunResult result;
  try {
    if (opt.workload == "sim_mesh") {
      perfbench::run_sim_mesh(opt, result);
    } else if (opt.workload == "sim_lossy") {
      perfbench::run_sim_lossy(opt, result);
    } else if (opt.workload == "serve_fleet") {
      perfbench::run_serve_fleet(opt, result);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    result.problem(std::string("exception: ") + e.what());
  }
  perfbench::Metric* setup = setup_metric(result);
  if (opt.setup_only) {
    for (const std::string& p : result.problems) {
      std::fprintf(stderr, "perfbench: INCORRECT: %s\n", p.c_str());
    }
    if (!result.correct || setup == nullptr) return 1;
    std::printf("%.9f\n", setup->value);
    return 0;
  }
  if (setup != nullptr) {
    std::vector<double> seen = {setup->value};
    for (int i = 1; i < kColdSetups; ++i) {
      const double s = cold_setup_s(opt);
      if (s < 0.0) {
        result.problem("a --setup-only run of this binary failed");
        break;
      }
      seen.push_back(s);
      setup->value = std::min(setup->value, s);
    }
    std::fprintf(stderr, "perfbench: cold set-ups (s):");
    for (const double s : seen) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "; setup_s is the fastest\n");
  }
  if (result.attempted == 0) {
    result.problem("no operation was attempted");
    result.attempted = 1;
    result.failed = 1;
  }
  if (opt.trace) perfbench::complete_per_layer(result);
  perfbench::print_result(result);
  return 0;
}
