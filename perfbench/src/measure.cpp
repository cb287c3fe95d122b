#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace perfbench {

namespace {

std::int64_t g_process_start_ns = 0;

/// Linear-interpolated quantile of a sorted sample (q in [0, 1]).
double quantile_sorted(const std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void mark_process_start() { g_process_start_ns = now_ns(); }

double seconds_since_start() {
  return static_cast<double>(now_ns() - g_process_start_ns) * 1e-9;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

ChunkSummary summarize(const std::vector<Chunk>& chunks) {
  ChunkSummary s;
  s.chunks = chunks.size();
  if (chunks.empty()) return s;
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return chunks[a].seconds < chunks[b].seconds;
  });
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(kFastShare * static_cast<double>(chunks.size()))));
  s.fast.assign(order.begin(), order.begin() + static_cast<long>(k));
  double fast_seconds = 0.0;
  double fast_ops = 0.0;
  for (const std::size_t i : s.fast) {
    fast_seconds += chunks[i].seconds;
    fast_ops += static_cast<double>(chunks[i].ops);
  }
  s.ops_per_s = fast_ops / fast_seconds;

  std::vector<float> pooled;
  for (const std::size_t i : s.fast) {
    pooled.insert(pooled.end(), chunks[i].op_us.begin(),
                  chunks[i].op_us.end());
  }
  std::sort(pooled.begin(), pooled.end());
  s.op_samples = pooled.size();
  s.op_p50_us = quantile_sorted(pooled, 0.50);
  s.op_p90_us = quantile_sorted(pooled, 0.90);

  double total_s = 0.0;
  double total_us = 0.0;
  std::uint64_t total_ops = 0;
  std::size_t samples = 0;
  for (const Chunk& c : chunks) {
    total_s += c.seconds;
    total_ops += c.ops;
    for (const float us : c.op_us) total_us += static_cast<double>(us);
    samples += c.op_us.size();
  }
  s.mean_ops_per_s = static_cast<double>(total_ops) / total_s;
  s.mean_op_us = samples > 0 ? total_us / static_cast<double>(samples) : 0.0;
  return s;
}

double fast_sum(const std::vector<Chunk>& chunks, const ChunkSummary& s,
                std::size_t i) {
  double sum = 0.0;
  for (const std::size_t c : s.fast) {
    if (i < chunks[c].layer.size()) sum += chunks[c].layer[i];
  }
  return sum;
}

double fast_mean_per_op(const std::vector<Chunk>& chunks,
                        const ChunkSummary& s, std::size_t i) {
  double ops = 0.0;
  for (const std::size_t c : s.fast) ops += static_cast<double>(chunks[c].ops);
  return ops > 0.0 ? fast_sum(chunks, s, i) / ops : 0.0;
}

void SpanLog::add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < cap_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t SpanLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace to %s\n",
                 path.c_str());
    return false;
  }
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  std::string line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    line.clear();
    if (i > 0) line += ",\n";
    line += "{\"name\":";
    json_string(line, sp.name);
    line += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(sp.thread);
    line += ",\"ts\":" +
            json_number(static_cast<double>(sp.start_ns - base) * 1e-3);
    line += ",\"dur\":" +
            json_number(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3);
    line += ",\"args\":{\"op\":" + std::to_string(sp.op) + ",\"parent\":";
    json_string(line, sp.parent);
    line += "}}";
    out << line;
  }
  out << "],\"dropped\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

void RunResult::problem(std::string what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(std::move(what));
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void print_result(const RunResult& r) {
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", p.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    json_string(out, r.metrics[i].name);
    out += ": {\"value\": " + json_number(r.metrics[i].value) +
           ", \"unit\": ";
    json_string(out, r.metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.ingest_us", "us"},
      {"core.send_us", "us"},
      {"core.screen_us", "us"},
      {"core.reports_per_msg", "count"},
      {"core.live_points_max", "count"},
      {"core.history_events_max", "count"},
      {"core.gc_passes_per_msg", "count"},
      {"core.loss_decls_per_msg", "count"},
      {"core.state_kb", "KiB"},
      {"graph.relaxations_per_msg", "count"},
      {"runtime.encode_us", "us"},
      {"runtime.decode_us", "us"},
      {"runtime.dgram_bytes", "B"},
      {"sim.self_us", "us"},
      {"runtime.handle_us", "us"},
      {"runtime.allocs_per_op", "count"},
      {"runtime.reply_bytes", "B"},
      {"runtime.mesh_handle_us", "us"},
      {"runtime.scrape_us", "us"},
      {"runtime.scrape_bytes", "B"},
      {"clock.resteers_per_op", "count"},
      {"serve.client_us", "us"},
      {"serve.sessions", "count"},
  };
  return kMetrics;
}

void complete_per_layer(RunResult& result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    Metric m{name, 0.0, unit};
    for (const Metric& have : result.metrics) {
      if (have.name == name) m.value = have.value;
    }
    ordered.push_back(m);
  }
  result.metrics = std::move(ordered);
}

}  // namespace perfbench
