// Measurement plumbing shared by the benchmark's workloads: wall-clock
// stamps, fixed-work chunks and their fast-chunk summary, in-memory spans
// for traced runs, peak RSS, and the one-line JSON result.
//
// Steadiness rule.  A run splits its timed phase into chunks of identical
// work.  Other tenants of a shared machine only ever slow a chunk down, so
// throughput and the per-op percentiles come from the run's faster chunks,
// selected by chunk duration alone (never by the latencies inside them).
// Whole-run means are printed to stderr as reference figures.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since main() started (set once by main via mark_process_start).
void mark_process_start();
[[nodiscard]] double seconds_since_start();

/// Peak resident set size of this process in MB (VmHWM), 0 if unreadable.
[[nodiscard]] double peak_rss_mb();

/// Share of a run's chunks, fastest first, that the summary draws from.
inline constexpr double kFastShare = 0.10;

/// One chunk of fixed work: its wall duration, one latency sample per op
/// (or per sampled op), and per-layer time sums (indexed by the workload's
/// own layer enum).
struct Chunk {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::vector<float> op_us;
  std::vector<double> layer;  ///< Sums over the chunk; meaning per workload.
};

/// Summary of a run's chunks.
struct ChunkSummary {
  std::size_t chunks = 0;
  std::vector<std::size_t> fast;  ///< Indices of the fastest kFastShare.
  double ops_per_s = 0.0;         ///< Ops over duration of the fast chunks.
  double op_p50_us = 0.0;         ///< Over ops pooled from the fast chunks.
  double op_p90_us = 0.0;
  std::size_t op_samples = 0;     ///< Ops pooled into the percentiles.
  double mean_ops_per_s = 0.0;    ///< Whole-run reference figures.
  double mean_op_us = 0.0;
};

[[nodiscard]] ChunkSummary summarize(const std::vector<Chunk>& chunks);

/// Sum of layer[i] over the fast chunks.
[[nodiscard]] double fast_sum(const std::vector<Chunk>& chunks,
                              const ChunkSummary& s, std::size_t i);

/// Sum of layer[i] over the fast chunks divided by their ops.
[[nodiscard]] double fast_mean_per_op(const std::vector<Chunk>& chunks,
                                      const ChunkSummary& s, std::size_t i);

/// One span of a traced run: a call across a layer boundary.
struct Span {
  const char* name = "";
  const char* parent = "";  ///< Name of the span that caused it ("" = root).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;  ///< Ops share an id: a message or a client request.
  std::uint32_t thread = 0;
};

/// Spans kept in memory and written out once the run ends (Chrome trace
/// JSON, loadable in Perfetto).  Capped: once full, further spans are
/// counted but dropped, so a long traced run stays bounded in memory.
/// Thread-safe: the serve workload records from the node's timer thread.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) { spans_.reserve(cap); }
  void add(const Span& span);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Writes the spans; returns false (and says why on stderr) on failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< Correctness findings (stderr).

  void problem(std::string what);
  void add(std::string name, double value, std::string unit);
};

/// Prints the result as the last line of stdout (problems go to stderr).
void print_result(const RunResult& result);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Span file for traced runs.
  /// Run the workload's set-up only and print its setup_s (main() starts
  /// such runs to time more cold set-ups, see kColdSetups).
  bool setup_only = false;
};

/// Per-layer metric names every traced run prints (0 where a layer is not
/// on the workload's path), in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Fills every per-layer metric the workload did not set with 0.
void complete_per_layer(RunResult& result);

}  // namespace perfbench
