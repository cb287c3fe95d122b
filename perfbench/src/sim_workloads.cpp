// sim_mesh and sim_lossy: the paper's CSA (core + graph) on simulated
// networks (sim), driven through workloads::run_scenario.
//
// Every CSA instance is a MeasuredCsa owned by this file.  It hosts an
// OptimalCsa with the daemon's options and routes every inbound message
// the way Node::handle_data does: the payload is framed as a runtime
// DataMsg and goes through the production codec (encode_datagram_into,
// decode_datagram), then screen_message, then on_receive_validated.
//
// A run repeats seeded scenarios (cycling through a few variants) for its
// time budget and cuts each repetition into segments of fixed message
// count: those are the chunks of the steadiness rule (measure.h).  An op is
// one simulated message: the sender's on_send plus the receiver's codec,
// screen and ingest calls (a message the simulator drops costs its on_send
// only).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "baselines/full_view_csa.h"
#include "common/errors.h"
#include "core/optimal_csa.h"
#include "runtime/datagram.h"
#include "workloads.h"
#include "workloads/scenario.h"
#include "workloads/topology.h"

namespace perfbench {
namespace {

using namespace driftsync;

struct SimShape {
  const char* name;
  bool lossy;
  /// Executions per run: repetitions cycle through this many seeded
  /// variants of the workload, so a run's figures average over several
  /// topologies and clock sets instead of hanging on one draw.
  std::size_t variants;
  RealTime repetition;       ///< Simulated seconds per repetition.
  /// Samples before this are not scored, and segments that start before it
  /// are not chunks: views are still filling there.
  RealTime warmup;
  /// Simulated seconds of the set-up's warm-up (variant 0).  Kept short
  /// (about 0.08 s of work), so a set-up often falls clear of other
  /// tenants' spells and main() can afford several cold set-ups per run.
  RealTime setup_warmup;
  Duration sample_interval;  ///< Estimate-sampling cadence (simulated).
  Duration detection_timeout;
  RealTime oracle_prefix;    ///< Simulated seconds checked against FullView.
};

constexpr SimShape kMeshShape{"sim_mesh", false, 8, 10.0, 2.0, 2.0, 0.1, 0.02,
                               1.5};
// Information needs ~16 probe rounds to cross the ring: score from 6 s on.
constexpr SimShape kLossyShape{"sim_lossy", true, 6, 16.0, 6.0, 3.0, 0.1, 0.02,
                               3.0};

/// Messages sent per segment.  A repetition is cut into segments at every
/// kSegmentMessages-th send.  Segments that start at or after the shape's
/// warmup (in simulated time, read off the source's exact clock) carry
/// about the same work, so those that are full are the run's chunks; the
/// earlier ones (views still filling) and the last, partial one (with the
/// scenario's teardown) count as attempted ops only.
constexpr std::size_t kSegmentMessages = 500;

/// Per-segment sums (Chunk::layer indices).
enum SegmentLayer : std::size_t {
  kSendNs,
  kEncodeNs,
  kDecodeNs,
  kScreenNs,
  kIngestNs,
  kCsaOtherNs,  ///< on_internal, delivery confirmations, estimates.
  kSent,
  kDelivered,
  kSegmentLayers
};

/// A repetition's segments; those from `first_scored` on, but for the last,
/// are chunks.
struct Segments {
  std::vector<Chunk> chunks;
  std::size_t first_scored = 0;
};

/// Totals of one repetition, or of several once added up.
struct RepetitionTotals {
  double messages = 0.0;
  double delivered = 0.0;
  double loss_decls = 0.0;
  double dgram_bytes = 0.0;
  double reports = 0.0;
  double relaxations = 0.0;
  double gc_passes = 0.0;
  double state_bytes = 0.0;
  double live_points_max = 0.0;
  double history_max = 0.0;

  /// Adds another repetition: sums add up, high-water marks take the max.
  void add(const RepetitionTotals& o) {
    messages += o.messages;
    delivered += o.delivered;
    loss_decls += o.loss_decls;
    dgram_bytes += o.dgram_bytes;
    reports += o.reports;
    relaxations += o.relaxations;
    gc_passes += o.gc_passes;
    state_bytes += o.state_bytes;
    live_points_max = std::max(live_points_max, o.live_points_max);
    history_max = std::max(history_max, o.history_max);
  }
};

enum class MsgState : std::uint8_t { kNone, kSent, kDelivered, kDeclared };

struct MsgSlot {
  float send_us = 0.0f;
  MsgState state = MsgState::kNone;
};

/// Bookkeeping for one repetition: message fates, segment boundaries, op
/// latencies, layer sums and correctness findings.  The simulator is
/// single-threaded.
class SimRecorder {
 public:
  explicit SimRecorder(bool traced) : traced_(traced) {}

  /// Starts recording spans (traced runs arm it when the timed phase starts).
  void arm(SpanLog* spans) { spans_ = spans; }

  /// Starts a repetition whose segments are chunks once simulated time
  /// reaches `scored_from`.
  void begin(std::size_t procs, std::int64_t t0, RealTime scored_from) {
    slots_.assign(procs, {});
    segments_ = Segments{};
    totals_ = RepetitionTotals{};
    sim_now_ = 0.0;
    scored_from_ = scored_from;
    scoring_ = false;
    open_segment(t0);
  }

  /// Closes the last segment at t1 and hands the repetition's segments over.
  Segments end(std::int64_t t1) {
    close_segment(t1);
    if (!scoring_) segments_.first_scored = segments_.chunks.size();
    return std::move(segments_);
  }

  /// The source's clock is exact: its events' local times are simulated
  /// time (never ahead of it, as the source may have been idle since).
  void source_time(LocalTime t) { sim_now_ = std::max(sim_now_, t); }

  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] const RepetitionTotals& totals() const { return totals_; }
  RepetitionTotals& totals() { return totals_; }

  void span(const char* name, const char* parent, std::int64_t t0,
            std::int64_t t1, std::uint64_t op) {
    if (spans_ != nullptr) spans_->add(Span{name, parent, t0, t1, op, 1});
  }

  void sent(EventId id, std::int64_t t0, std::int64_t t1) {
    MsgSlot& s = slot(id);
    s.send_us = static_cast<float>(t1 - t0) * 1e-3f;
    s.state = MsgState::kSent;
    cur_.layer[kSendNs] += static_cast<double>(t1 - t0);
    cur_.layer[kSent] += 1.0;
    totals_.messages += 1.0;
    if (traced_) span("core.on_send", "", t0, t1, id.pack());
    if (static_cast<std::size_t>(totals_.messages) % kSegmentMessages == 0) {
      close_segment(t1);
      open_segment(t1);
    }
  }

  /// A message reached its receiver; `pipeline_ns` covers codec, screen
  /// and ingest.  `ok` is false when the op failed (decode error, screen
  /// verdict other than kOk, or a rolled-back ingest).
  void received(EventId send_id, std::int64_t pipeline_ns, bool ok) {
    MsgSlot& s = slot(send_id);
    if (s.state != MsgState::kSent) {
      note("message " + describe(send_id) +
           " delivered after it was declared lost or twice");
      return;
    }
    s.state = MsgState::kDelivered;
    ++cur_.ops;
    cur_.layer[kDelivered] += 1.0;
    totals_.delivered += 1.0;
    if (!ok) ++failed_;
    cur_.op_us.push_back(s.send_us + static_cast<float>(pipeline_ns) * 1e-3f);
  }

  void declared_lost(EventId send_id) {
    MsgSlot& s = slot(send_id);
    totals_.loss_decls += 1.0;
    if (s.state != MsgState::kSent) {
      note("loss declaration for message " + describe(send_id) +
           " that was delivered or never sent");
      return;
    }
    s.state = MsgState::kDeclared;
    ++cur_.ops;
    cur_.op_us.push_back(s.send_us);
  }

  void layer(SegmentLayer i, double v) { cur_.layer[i] += v; }

  /// A correctness finding (capped so a systematic fault stays readable).
  void note(std::string what) {
    ++findings_;
    if (problems_.size() < 10) problems_.push_back(std::move(what));
  }

  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t findings() const { return findings_; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

  // Scratch reused by every inbound message (the simulator is serial).
  runtime::Datagram out{runtime::DataMsg{}};
  std::vector<std::uint8_t> wire;

 private:
  void open_segment(std::int64_t t0) {
    if (!scoring_ && sim_now_ >= scored_from_) {
      scoring_ = true;
      segments_.first_scored = segments_.chunks.size();
    }
    cur_ = Chunk{};
    cur_.layer.assign(kSegmentLayers, 0.0);
    segment_start_ = t0;
  }
  void close_segment(std::int64_t t1) {
    cur_.seconds = static_cast<double>(t1 - segment_start_) * 1e-9;
    segments_.chunks.push_back(std::move(cur_));
  }
  MsgSlot& slot(EventId id) {
    std::vector<MsgSlot>& v = slots_[id.proc];
    if (v.size() <= id.seq) v.resize(std::max<std::size_t>(64, 2 * id.seq));
    return v[id.seq];
  }
  static std::string describe(EventId id) {
    return std::to_string(id.proc) + ":" + std::to_string(id.seq);
  }

  bool traced_;
  SpanLog* spans_ = nullptr;
  std::vector<std::vector<MsgSlot>> slots_;
  Segments segments_;
  Chunk cur_;
  RealTime sim_now_ = 0.0;
  RealTime scored_from_ = 0.0;
  bool scoring_ = false;
  std::int64_t segment_start_ = 0;
  RepetitionTotals totals_;
  std::uint64_t failed_ = 0;
  std::uint64_t findings_ = 0;
  std::vector<std::string> problems_;
};

/// The benchmark's CSA wrapper.  Composition, not inheritance: the inner
/// OptimalCsa's on_receive_validated dispatches to its own virtual
/// on_receive, so a subclass overriding on_receive would be re-entered.
class MeasuredCsa final : public Csa {
 public:
  MeasuredCsa(const OptimalCsa::Options& opts, SimRecorder& rec)
      : inner_(opts), rec_(&rec) {}

  MeasuredCsa(const MeasuredCsa&) = delete;
  MeasuredCsa& operator=(const MeasuredCsa&) = delete;

  /// Adds the CsaStats counters that ScenarioReport leaves out to the
  /// repetition's totals (the simulator destroys every CSA when
  /// run_scenario returns).
  ~MeasuredCsa() override {
    const CsaStats s = inner_.stats();
    RepetitionTotals& t = rec_->totals();
    t.relaxations += static_cast<double>(s.apsp_relaxations);
    t.gc_passes += static_cast<double>(s.gc_passes);
  }

  void init(const SystemSpec& spec, ProcId self) override {
    inner_.init(spec, self);
    source_ = self == spec.source();
  }

  CsaPayload on_send(const SendContext& ctx) override {
    if (source_) rec_->source_time(ctx.send_event.lt);
    const std::int64_t t0 = now_ns();
    CsaPayload payload = inner_.on_send(ctx);
    rec_->sent(ctx.send_event.id, t0, now_ns());
    return payload;
  }

  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override;

  void on_internal(const EventRecord& event) override {
    const std::int64_t t0 = now_ns();
    inner_.on_internal(event);
    if (rec_->traced()) {
      const std::int64_t t1 = now_ns();
      rec_->layer(kCsaOtherNs, static_cast<double>(t1 - t0));
      rec_->span("core.on_internal", "", t0, t1, event.match.pack());
    }
    if (event.kind == EventKind::kLossDecl) rec_->declared_lost(event.match);
  }

  void on_delivery_confirmed(ProcId dest) override {
    const std::int64_t t0 = rec_->traced() ? now_ns() : 0;
    inner_.on_delivery_confirmed(dest);
    if (rec_->traced()) {
      rec_->layer(kCsaOtherNs, static_cast<double>(now_ns() - t0));
    }
  }

  [[nodiscard]] Interval estimate(LocalTime now) const override {
    const std::int64_t t0 = rec_->traced() ? now_ns() : 0;
    const Interval est = inner_.estimate(now);
    if (rec_->traced()) {
      rec_->layer(kCsaOtherNs, static_cast<double>(now_ns() - t0));
    }
    return est;
  }

  [[nodiscard]] CsaStats stats() const override { return inner_.stats(); }
  [[nodiscard]] const char* name() const override { return "measured"; }

 private:
  OptimalCsa inner_;
  SimRecorder* rec_;
  bool source_ = false;
};

void MeasuredCsa::on_receive(const RecvContext& ctx,
                             const CsaPayload& payload) {
  SimRecorder& rec = *rec_;
  if (source_) rec.source_time(ctx.recv_event.lt);
  const bool traced = rec.traced();
  runtime::DataMsg& msg = std::get<runtime::DataMsg>(rec.out);
  const std::int64_t t0 = now_ns();
  // Frame the message as Node::poll_peer would (no acks ride along: the
  // simulator resolves fates itself).
  msg.from = ctx.from;
  msg.dgram_seq = std::uint64_t{ctx.send_event.id.seq} + 1;
  msg.processed_hw = 0;
  msg.seen_hw = 0;
  msg.app_tag = ctx.app_tag;
  msg.send_seq = ctx.send_event.id.seq;
  msg.send_lt = ctx.send_event.lt;
  msg.payload.reports.assign(payload.reports.begin(), payload.reports.end());
  msg.payload.scalars.assign(payload.scalars.begin(), payload.scalars.end());
  msg.trace_id = 0;
  runtime::encode_datagram_into(rec.wire, rec.out);
  const std::int64_t t1 = traced ? now_ns() : 0;
  runtime::Datagram in;
  bool decoded = true;
  try {
    in = runtime::decode_datagram(rec.wire);
  } catch (const WireError&) {
    decoded = false;
  }
  const std::int64_t t2 = traced ? now_ns() : 0;
  const runtime::DataMsg* got =
      decoded ? std::get_if<runtime::DataMsg>(&in) : nullptr;
  bool ok = got != nullptr;
  ObservationVerdict verdict = ObservationVerdict::kOk;
  std::int64_t t3 = t2;
  if (ok) {
    // Node::handle_data order: screen at arrival, then validated ingest.
    verdict = inner_
                  .screen_message(got->from, got->send_lt, ctx.recv_event.lt,
                                  got->payload)
                  .verdict;
    if (traced) t3 = now_ns();
    ok = verdict == ObservationVerdict::kOk &&
         inner_.on_receive_validated(ctx, got->payload);
  }
  const std::int64_t t4 = now_ns();
  rec.received(ctx.send_event.id, t4 - t0, ok);
  if (got != nullptr && !(*got == msg)) {
    rec.note("decoded DataMsg differs from the encoded one");
  }
  if (verdict != ObservationVerdict::kOk) {
    rec.note("screen_message rejected an honest message");
  } else if (!ok) {
    rec.note("decode or validated ingest failed on an honest message");
  }
  rec.totals().dgram_bytes += static_cast<double>(rec.wire.size());
  if (traced) {
    const std::uint64_t op = ctx.send_event.id.pack();
    rec.layer(kEncodeNs, static_cast<double>(t1 - t0));
    rec.layer(kDecodeNs, static_cast<double>(t2 - t1));
    rec.layer(kScreenNs, static_cast<double>(t3 - t2));
    rec.layer(kIngestNs, static_cast<double>(t4 - t3));
    rec.span("sim.deliver", "", t0, t4, op);
    rec.span("runtime.encode", "sim.deliver", t0, t1, op);
    rec.span("runtime.decode", "sim.deliver", t1, t2, op);
    rec.span("core.screen", "sim.deliver", t2, t3, op);
    rec.span("core.ingest", "sim.deliver", t3, t4, op);
  }
}

/// Forwards every call to `inner` and appends each estimate to `out`; with
/// `narrow` > 0 it shrinks every bounded estimate by that share of its
/// width (the planted fault the oracle comparison must catch).
class RecordingCsa final : public Csa {
 public:
  RecordingCsa(std::unique_ptr<Csa> inner, std::vector<Interval>& out,
               double narrow)
      : inner_(std::move(inner)), out_(&out), narrow_(narrow) {}

  void init(const SystemSpec& spec, ProcId self) override {
    inner_->init(spec, self);
  }
  CsaPayload on_send(const SendContext& ctx) override {
    return inner_->on_send(ctx);
  }
  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override {
    inner_->on_receive(ctx, payload);
  }
  void on_internal(const EventRecord& event) override {
    inner_->on_internal(event);
  }
  void on_delivery_confirmed(ProcId dest) override {
    inner_->on_delivery_confirmed(dest);
  }
  [[nodiscard]] Interval estimate(LocalTime now) const override {
    Interval est = inner_->estimate(now);
    if (narrow_ > 0.0 && est.bounded()) {
      const double cut = 0.5 * narrow_ * est.width();
      est = Interval{est.lo + cut, est.hi - cut};
    }
    out_->push_back(est);
    return est;
  }
  [[nodiscard]] CsaStats stats() const override { return inner_->stats(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Csa> inner_;
  std::vector<Interval>* out_;
  double narrow_;
};

/// The workload's seeded inputs.
struct SimInputs {
  workloads::Network net;
  workloads::ScenarioConfig config;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

SimInputs make_inputs(const SimShape& shape, std::uint64_t run_seed,
                      std::size_t variant) {
  const std::uint64_t seed = mix(mix(run_seed) + variant);
  workloads::TopoParams params;
  params.rho = 100e-6;
  params.latency = sim::LatencyModel::uniform(0.001, 0.010);
  SimInputs in;
  if (shape.lossy) {
    params.loss_prob = 0.05;
    in.net = workloads::make_ring(32, params);
  } else {
    // 3n + 1 links: a random spanning tree (n - 1) plus 2n + 2 extra.
    const std::size_t n = 16;
    in.net = workloads::make_random(n, 2 * n + 2, seed, params);
  }
  in.config.seed = mix(seed);
  in.config.duration = shape.repetition;
  in.config.sample_interval = shape.sample_interval;
  in.config.detection_timeout = shape.detection_timeout;
  in.config.warmup = shape.warmup;
  return in;
}

workloads::AppFactory make_apps(const SimShape& shape,
                                const workloads::Network& net) {
  if (shape.lossy) return workloads::periodic_probe_apps(net, 0.25);
  return workloads::gossip_apps(0.05, 0.5);
}

/// Runs the first `prefix` simulated seconds of the workload's execution
/// with FullViewCsa (the Section 2.3 oracle) attached next to the measured
/// CSA and compares every sampled estimate.  Returns the number of
/// mismatching samples and sets *bounded to the bounded samples compared.
std::size_t oracle_mismatches(const SimShape& shape, SimInputs in,
                              double narrow, std::size_t* bounded,
                              std::vector<std::string>& problems) {
  SimRecorder rec(false);
  std::vector<Interval> measured;
  std::vector<Interval> oracle;
  const OptimalCsa::Options opts = daemon_csa_options();
  const std::vector<workloads::CsaSlot> slots{
      {"measured",
       [&](ProcId) -> std::unique_ptr<Csa> {
         return std::make_unique<RecordingCsa>(
             std::make_unique<MeasuredCsa>(opts, rec), measured, narrow);
       }},
      {"full-view",
       [&](ProcId) -> std::unique_ptr<Csa> {
         return std::make_unique<RecordingCsa>(
             std::make_unique<FullViewCsa>(), oracle, 0.0);
       }},
  };
  in.config.duration = shape.oracle_prefix;
  in.config.warmup = 0.0;
  rec.begin(in.net.spec.num_procs(), now_ns(), 0.0);
  const workloads::ScenarioReport report =
      workloads::run_scenario(in.net, make_apps(shape, in.net), slots,
                              in.config);
  std::size_t mismatches = 0;
  *bounded = 0;
  if (measured.size() != oracle.size()) {
    problems.push_back("oracle run sampled the two CSAs unequally");
    return 1;
  }
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const Interval& a = measured[i];
    const Interval& b = oracle[i];
    if (a.bounded() != b.bounded() ||
        (a.bounded() && !intervals_close(a, b, 1e-9))) {
      if (mismatches == 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "sample %zu: width %.9g differs from the FullViewCsa "
                      "oracle's %.9g",
                      i, a.width(), b.width());
        problems.push_back(buf);
      }
      ++mismatches;
    } else if (a.bounded()) {
      ++*bounded;
    }
  }
  for (const workloads::CsaMetrics& m : report.csas) {
    if (m.containment_violations > 0) {
      problems.push_back(m.label + ": true time outside " +
                         std::to_string(m.containment_violations) +
                         " oracle-run samples");
      ++mismatches;
    }
  }
  for (const std::string& p : rec.problems()) problems.push_back(p);
  return mismatches + rec.findings();
}

void run_sim(const SimShape& shape, const RunOptions& opt, RunResult& res) {
  std::vector<SimInputs> variants;
  for (std::size_t v = 0; v < shape.variants; ++v) {
    variants.push_back(make_inputs(shape, opt.seed, v));
  }
  std::vector<workloads::AppFactory> apps;  // Refer to variants[v].net.
  for (const SimInputs& in : variants) apps.push_back(make_apps(shape, in.net));
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) spans = std::make_unique<SpanLog>(60000);
  SimRecorder rec(opt.trace);
  const OptimalCsa::Options opts = daemon_csa_options();
  const std::vector<workloads::CsaSlot> slots{
      {"measured", [&](ProcId) -> std::unique_ptr<Csa> {
         return std::make_unique<MeasuredCsa>(opts, rec);
       }}};

  // Scored widths of the timed phase, per variant.
  std::vector<double> width_sum(shape.variants, 0.0);
  std::vector<std::size_t> width_n(shape.variants, 0);
  std::size_t containment_violations = 0;
  std::size_t unbounded = 0;
  std::vector<Chunk> chunks;
  std::size_t repetitions = 0;  // Timed ones.
  // Per-layer counts come from the timed phase's first round over the
  // variants, which every run makes, so they repeat exactly for a seed.
  RepetitionTotals round;
  const auto repetition = [&](std::size_t v, bool timed,
                              RealTime duration) {
    const SimInputs& in = variants[v];
    workloads::ScenarioConfig config = in.config;
    config.duration = duration;
    const std::int64_t t0 = now_ns();
    rec.begin(in.net.spec.num_procs(), t0, shape.warmup);
    const workloads::ScenarioReport report =
        workloads::run_scenario(in.net, apps[v], slots, config);
    const std::int64_t t1 = now_ns();
    Segments segments = rec.end(t1);
    if (spans != nullptr && timed) {
      spans->add(Span{"sim.repetition", "", t0, t1, 0, 1});
    }
    const workloads::CsaMetrics& m = report.csas[0];
    RepetitionTotals& t = rec.totals();
    t.reports = static_cast<double>(m.reports_sent);
    t.state_bytes = static_cast<double>(m.state_bytes);
    t.live_points_max = static_cast<double>(m.max_live_points);
    t.history_max = static_cast<double>(m.max_history_events);
    containment_violations += m.containment_violations;
    unbounded += m.unbounded_samples;
    if (rec.totals().loss_decls > static_cast<double>(report.messages_lost)) {
      rec.note("more loss declarations than messages the simulator dropped");
    }
    if (!timed) return;
    if (repetitions < shape.variants) round.add(rec.totals());
    width_sum[v] += m.width.sum();
    width_n[v] += m.width.count();
    std::vector<Chunk>& seg = segments.chunks;
    for (std::size_t i = 0; i < seg.size(); ++i) {
      res.attempted += seg[i].ops;
      if (i >= segments.first_scored && i + 1 < seg.size()) {
        chunks.push_back(std::move(seg[i]));
      }
    }
  };

  // Set-up: inputs built above, then a short untimed warm-up.
  repetition(0, false, shape.setup_warmup);
  const double setup_s = seconds_since_start();
  if (opt.setup_only) {
    res.add("setup_s", setup_s, "s");
    return;
  }
  const std::uint64_t failed_before = rec.failed();
  rec.arm(spans.get());

  const std::int64_t timed_start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  // At least one round over the variants.
  while (repetitions < shape.variants || now_ns() - timed_start < budget) {
    repetition(repetitions % shape.variants, true, shape.repetition);
    ++repetitions;
  }
  const double peak_mb = peak_rss_mb();  // Before any oracle check runs.

  const ChunkSummary s = summarize(chunks);
  res.failed = rec.failed() - failed_before;

  // --- Correctness ----------------------------------------------------
  for (const std::string& p : rec.problems()) res.problem(p);
  if (containment_violations > 0) {
    res.problem(std::to_string(containment_violations) +
                " sampled estimates do not contain true time");
  }
  std::size_t bounded = 0;
  std::vector<std::string> oracle_problems;
  if (oracle_mismatches(shape, variants[0], 0.0, &bounded, oracle_problems) >
      0) {
    for (const std::string& p : oracle_problems) res.problem(p);
  }
  if (bounded == 0) {
    res.problem("the oracle prefix produced no bounded sample to compare");
  }
  // Planted fault: 1%-narrowed intervals must fail the same comparison.
  std::size_t planted_bounded = 0;
  std::vector<std::string> ignored;
  if (oracle_mismatches(shape, variants[0], 0.01, &planted_bounded,
                        ignored) == 0) {
    res.problem("self-check: 1%-narrowed intervals passed the oracle check");
  }

  std::fprintf(stderr,
               "perfbench %s: %zu repetitions (first round %.0f messages), %zu "
               "chunks; fast %.1f ops/s, whole-run mean %.1f ops/s; "
               "op mean %.2f us; percentiles over %zu ops; %zu unbounded "
               "samples; oracle samples %zu\n",
               shape.name, repetitions, round.messages, chunks.size(),
               s.ops_per_s, s.mean_ops_per_s, s.mean_op_us, s.op_samples,
               unbounded, bounded);

  if (!opt.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", s.ops_per_s, "ops/s");
    res.add("op_p50_us", s.op_p50_us, "us");
    res.add("op_p90_us", s.op_p90_us, "us");
    double width = 0.0;
    for (std::size_t v = 0; v < shape.variants; ++v) {
      if (width_n[v] > 0) {
        width += width_sum[v] / static_cast<double>(width_n[v]);
      }
    }
    res.add("width_us", width / static_cast<double>(shape.variants) * 1e6,
            "us");
    res.add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  // Per-layer metrics.  Times: fast-segment sums per call; counts: the
  // first round's totals per message sent.
  const double sent = fast_sum(chunks, s, kSent);
  const double delivered = fast_sum(chunks, s, kDelivered);
  const auto us_per = [&](SegmentLayer i, double calls) {
    return calls > 0.0 ? fast_sum(chunks, s, i) / calls * 1e-3 : 0.0;
  };
  double fast_seconds = 0.0;
  double in_csa_ns = 0.0;
  for (const std::size_t i : s.fast) fast_seconds += chunks[i].seconds;
  for (const SegmentLayer l :
       {kSendNs, kEncodeNs, kDecodeNs, kScreenNs, kIngestNs, kCsaOtherNs}) {
    in_csa_ns += fast_sum(chunks, s, l);
  }
  const RepetitionTotals& t = round;
  const double msgs = t.messages;
  res.add("core.ingest_us", us_per(kIngestNs, delivered), "us");
  res.add("core.send_us", us_per(kSendNs, sent), "us");
  res.add("core.screen_us", us_per(kScreenNs, delivered), "us");
  res.add("core.reports_per_msg", t.reports / msgs, "count");
  res.add("core.live_points_max", t.live_points_max, "count");
  res.add("core.history_events_max", t.history_max, "count");
  res.add("core.gc_passes_per_msg", t.gc_passes / msgs, "count");
  res.add("core.loss_decls_per_msg", t.loss_decls / msgs, "count");
  res.add("core.state_kb",
          t.state_bytes / static_cast<double>(shape.variants) / 1024.0, "KiB");
  res.add("graph.relaxations_per_msg", t.relaxations / msgs, "count");
  res.add("runtime.encode_us", us_per(kEncodeNs, delivered), "us");
  res.add("runtime.decode_us", us_per(kDecodeNs, delivered), "us");
  res.add("runtime.dgram_bytes", t.dgram_bytes / t.delivered, "B");
  res.add("sim.self_us", (fast_seconds * 1e9 - in_csa_ns) / sent * 1e-3,
          "us");
  std::fprintf(stderr,
               "perfbench %s traced: fast %.1f ops/s, p50 %.2f us, "
               "p90 %.2f us; %zu spans kept, %llu dropped\n",
               shape.name, s.ops_per_s, s.op_p50_us, s.op_p90_us,
               spans->size(),
               static_cast<unsigned long long>(spans->dropped()));
  if (!opt.trace_out.empty()) spans->write_chrome_json(opt.trace_out);
}

}  // namespace

void run_sim_mesh(const RunOptions& opt, RunResult& result) {
  run_sim(kMeshShape, opt, result);
}

void run_sim_lossy(const RunOptions& opt, RunResult& result) {
  run_sim(kLossyShape, opt, result);
}

}  // namespace perfbench
