// serve_fleet: one production runtime::Node with serving enabled, driven by
// a single-threaded closed loop of 10,000 serve::ClientEstimator clients.
//
// The node runs on the benchmark's own Transport and TimeSource, so no
// socket, sleep or disk write sits in the timed phase:
//  * BenchTransport hands the node's reply to the driver synchronously and
//    queues everything the node sends to its mesh peer in a mailbox;
//  * NodeClock is a drifting affine map of the monotonic clock, whose
//    undrifted reading is the source's true time.
// The mesh peer is the source itself, played by the benchmark (SourcePeer):
// it answers the node's polls (poll = timeout = 50 ms) with its own data
// messages, acks and skip-commit replies, so mesh writes run beside the
// reads.  Two threads: the driver, and the node's timer.
//
// One op is one client request up to the client's accepted response.
// Clients take turns in the order they were seated, as periodic pollers
// do.  Every kScrapeEvery requests one MetricsReq scrape goes through the
// same handler, and a chunk is a whole number of scrape periods.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/alloc_stats.h"
#include "common/errors.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "runtime/datagram.h"
#include "runtime/node.h"
#include "serve/client_session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace driftsync;
using runtime::Datagram;

constexpr std::size_t kClients = 10000;
/// The deployment the traffic mix models.  Each client polls every 10 s, a
/// third of the daemon's default session idle timeout (--client-idle-ms =
/// 30000), so a session outlives two lost polls.  A Prometheus server
/// scrapes the node every 15 s, the scrape_interval of Prometheus's example
/// configuration.  That is one scrape per 10,000 * 15 / 10 = 15,000
/// requests.
constexpr double kClientPollPeriod = 10.0;
constexpr double kScrapePeriod = 15.0;
constexpr auto kScrapeEvery = static_cast<std::size_t>(
    static_cast<double>(kClients) * kScrapePeriod / kClientPollPeriod);
/// Three scrape periods, so every chunk carries the same work.
constexpr std::size_t kChunkRequests = 3 * kScrapeEvery;
constexpr std::size_t kSampleEvery = 100;  ///< Latency sample stride.
/// One-way delay of the mesh link, in true seconds.  A fixed wire delay
/// keeps the node's round trip to the source (and so the served width)
/// from hanging on how fast this machine happens to run the handlers.
constexpr double kMeshDelay = 250e-6;
constexpr double kPoll = 0.05;  ///< Node poll period and fate timeout.
constexpr double kNodeRho = 100e-6;
constexpr ProcId kSource = 0;
constexpr ProcId kNodeId = 1;

/// Per-chunk layer sums (Chunk::layer indices).
enum ServeLayer : std::size_t {
  kHandleNs,
  kClientNs,
  kAllocs,
  kReplyBytes,
  kMeshHandleNs,
  kMeshHandles,
  kScrapeNs,
  kScrapes,
  kScrapeBytes,
  kResteers,
  kServeLayers
};

/// The source's true time: monotonic seconds since the run's epoch, offset
/// so that every reading is positive.
class Truth {
 public:
  Truth() : epoch_(now_ns()) {}
  [[nodiscard]] double now() const {
    return 1000.0 + static_cast<double>(now_ns() - epoch_) * 1e-9;
  }

 private:
  std::int64_t epoch_;
};

/// Span recording for traced runs, armed when the timed phase starts.
/// Calls from the driver thread carry the current op id and parent span;
/// calls from the node's timer thread are filed under "node.timer".
class TraceCtx {
 public:
  TraceCtx() : driver_(std::this_thread::get_id()) {}

  void arm(SpanLog* spans) { spans_.store(spans, std::memory_order_release); }
  [[nodiscard]] bool on() const {
    return spans_.load(std::memory_order_acquire) != nullptr;
  }

  void begin_op(std::uint64_t op, const char* parent) {
    op_ = op;
    parent_ = parent;
  }

  void add(const char* name, std::int64_t t0, std::int64_t t1) {
    SpanLog* spans = spans_.load(std::memory_order_acquire);
    if (spans == nullptr) return;
    if (std::this_thread::get_id() == driver_) {
      spans->add(Span{name, parent_, t0, t1, op_, 1});
    } else {
      spans->add(Span{name, "node.timer", t0, t1, 0, 2});
    }
  }

 private:
  std::atomic<SpanLog*> spans_{nullptr};
  std::thread::id driver_;
  std::uint64_t op_ = 0;       // Driver thread only.
  const char* parent_ = "";    // Driver thread only.
};

/// The node's local clock: offset + rate * true time.
class NodeClock final : public runtime::TimeSource {
 public:
  NodeClock(const Truth& truth, double offset, double rate, TraceCtx& trace)
      : truth_(&truth), offset_(offset), rate_(rate), trace_(&trace) {}

  [[nodiscard]] LocalTime now() const override {
    if (!trace_->on()) return offset_ + rate_ * truth_->now();
    const std::int64_t t0 = now_ns();
    const LocalTime lt = offset_ + rate_ * truth_->now();
    trace_->add("clock.now", t0, now_ns());
    return lt;
  }

 private:
  const Truth* truth_;
  double offset_;
  double rate_;
  TraceCtx* trace_;
};

/// In-process transport: replies to the datagram being handled go straight
/// back to the driver; datagrams for the mesh peer wait in a mailbox the
/// driver drains between requests.
class BenchTransport final : public runtime::Transport {
 public:
  BenchTransport(const Truth& truth, TraceCtx& trace)
      : truth_(&truth), trace_(&trace) {}

  void start(runtime::DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  // Every handler call runs on the driver thread, which is also the one
  // that stops the node, so no call can be in flight here.
  void stop() override {}

  void send(ProcId to, std::vector<std::uint8_t> bytes) override {
    const std::int64_t t0 = trace_->on() ? now_ns() : 0;
    if (to == runtime::kReplyPeer) {
      reply_ = std::move(bytes);
      has_reply_ = true;
    } else {
      const double sent = truth_->now();
      const std::lock_guard<std::mutex> lock(mu_);
      mailbox_.push_back(Mail{sent, std::move(bytes)});
      has_mail_.store(true, std::memory_order_release);
    }
    if (trace_->on()) trace_->add("transport.send", t0, now_ns());
  }

  /// Replies reuse the buffer the driver handed back (zero-alloc like the
  /// pooled UDP transport); mesh sends get a fresh one.
  [[nodiscard]] std::vector<std::uint8_t> take_buffer(ProcId to) override {
    if (to == runtime::kReplyPeer) return std::move(spare_);
    return {};
  }

  /// Driver side: one datagram into the node's handler.
  void deliver(std::span<const std::uint8_t> bytes) { handler_(bytes); }

  /// Moves the reply of the last handler call into `out` (false if none);
  /// out's previous buffer is kept for the next reply.
  bool take_reply(std::vector<std::uint8_t>& out) {
    if (!has_reply_) return false;
    has_reply_ = false;
    std::swap(out, reply_);
    spare_ = std::move(reply_);
    spare_.clear();
    return true;
  }

  [[nodiscard]] bool has_mail() const {
    return has_mail_.load(std::memory_order_acquire);
  }

  /// A datagram for the mesh peer and the true time it was sent.
  struct Mail {
    double sent = 0.0;
    std::vector<std::uint8_t> bytes;
  };

  /// Appends everything the node sent to the mesh peer to `out`.
  void drain_mail(std::deque<Mail>& out) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Mail& m : mailbox_) out.push_back(std::move(m));
    mailbox_.clear();
    has_mail_.store(false, std::memory_order_release);
  }

 private:
  const Truth* truth_;
  TraceCtx* trace_;
  runtime::DatagramHandler handler_;
  // Driver thread only (replies are sent from inside deliver()).
  std::vector<std::uint8_t> reply_;
  std::vector<std::uint8_t> spare_;
  bool has_reply_ = false;
  // Mesh mailbox: written by the node from either thread.
  std::mutex mu_;
  std::vector<Mail> mailbox_;
  std::atomic<bool> has_mail_{false};
};

/// The source, played by the benchmark: an OptimalCsa on the true clock
/// that speaks the node's skip-commit protocol (runtime/datagram.h).  It
/// answers each poll with its own data message (piggybacking the ack) when
/// its previous one is resolved, and with a bare ack otherwise.
class SourcePeer {
 public:
  struct Counters {
    std::uint64_t data_in = 0;
    std::uint64_t data_out = 0;
    std::uint64_t skips = 0;         ///< Skip commits the node asked for.
    std::uint64_t renounced = 0;     ///< Node data the source refused.
    std::uint64_t loss_decls = 0;    ///< Own data the node renounced.
    std::uint64_t bad_dgrams = 0;    ///< Undecodable or unexpected.
  };

  SourcePeer(const SystemSpec& spec, const Truth& truth)
      : csa_(daemon_csa_options()), truth_(&truth) {
    csa_.init(spec, kSource);
  }

  /// Handles one datagram the node sent; appends the answers to `out`.
  void handle(std::span<const std::uint8_t> bytes,
              std::vector<std::vector<std::uint8_t>>& out) {
    Datagram d;
    try {
      d = runtime::decode_datagram(bytes);
    } catch (const WireError&) {
      ++c_.bad_dgrams;
      return;
    }
    if (const auto* data = std::get_if<runtime::DataMsg>(&d)) {
      on_data(*data, out);
    } else if (const auto* ack = std::get_if<runtime::AckMsg>(&d)) {
      resolve(ack->processed_hw, ack->seen_hw);
    } else if (const auto* skip = std::get_if<runtime::SkipMsg>(&d)) {
      ++c_.skips;
      last_seen_ = std::max(last_seen_, skip->skip_to);
      out.push_back(runtime::encode_datagram(make_ack()));
    } else {
      ++c_.bad_dgrams;
    }
  }

  [[nodiscard]] const Counters& counters() const { return c_; }

 private:
  void on_data(const runtime::DataMsg& msg,
               std::vector<std::vector<std::uint8_t>>& out) {
    ++c_.data_in;
    resolve(msg.processed_hw, msg.seen_hw);
    if (msg.dgram_seq > last_seen_) {
      last_seen_ = msg.dgram_seq;
      const LocalTime arrival = truth_->now();
      EventRecord recv = mint(EventKind::kReceive,
                              EventId{kNodeId, msg.send_seq});
      recv.slack = std::max(0.0, recv.lt - arrival);
      EventRecord send;
      send.id = EventId{kNodeId, msg.send_seq};
      send.lt = msg.send_lt;
      send.kind = EventKind::kSend;
      send.peer = kSource;
      const RecvContext ctx{kSource, kNodeId, recv, send, msg.app_tag};
      const bool ok =
          csa_.screen_message(kNodeId, msg.send_lt, arrival, msg.payload)
                  .verdict == ObservationVerdict::kOk &&
          csa_.on_receive_validated(ctx, msg.payload);
      if (ok) {
        last_processed_ = msg.dgram_seq;
      } else {
        --next_seq_;  // Un-mint the receive, as Node::handle_data does.
        ++c_.renounced;
      }
    }
    if (pending_ != 0) {
      out.push_back(runtime::encode_datagram(make_ack()));
      return;
    }
    const EventRecord send = mint(EventKind::kSend, kInvalidEvent);
    runtime::DataMsg reply;
    reply.from = kSource;
    reply.dgram_seq = out_seq_++;
    reply.processed_hw = last_processed_;
    reply.seen_hw = last_seen_;
    reply.send_seq = send.id.seq;
    reply.send_lt = send.lt;
    reply.payload = csa_.on_send(SendContext{kSource, kNodeId, send, 0});
    pending_ = reply.dgram_seq;
    pending_send_seq_ = send.id.seq;
    ++c_.data_out;
    out.push_back(runtime::encode_datagram(Datagram{std::move(reply)}));
  }

  void resolve(std::uint64_t processed_hw, std::uint64_t seen_hw) {
    if (pending_ == 0) return;
    if (processed_hw >= pending_) {
      csa_.on_delivery_confirmed(kNodeId);
    } else if (seen_hw >= pending_) {
      ++c_.loss_decls;
      csa_.on_internal(mint(EventKind::kLossDecl,
                            EventId{kSource, pending_send_seq_}));
    } else {
      return;
    }
    pending_ = 0;
  }

  [[nodiscard]] Datagram make_ack() const {
    return Datagram{runtime::AckMsg{kSource, last_processed_, last_seen_}};
  }

  EventRecord mint(EventKind kind, EventId match) {
    EventRecord rec;
    rec.id = EventId{kSource, next_seq_++};
    const LocalTime now = truth_->now();
    rec.lt = now > last_lt_ ? now : last_lt_ + 1e-9;
    last_lt_ = rec.lt;
    rec.kind = kind;
    rec.peer = kNodeId;
    rec.match = match;
    return rec;
  }

  OptimalCsa csa_;
  const Truth* truth_;
  std::uint32_t next_seq_ = 0;
  LocalTime last_lt_ = 0.0;
  std::uint64_t out_seq_ = 1;
  std::uint64_t pending_ = 0;  ///< Own unresolved dgram_seq (0 = none).
  std::uint32_t pending_send_seq_ = 0;
  std::uint64_t last_processed_ = 0;
  std::uint64_t last_seen_ = 0;
  Counters c_;
};

/// Whether a served reply is sound against true time bracketed by clock
/// reads before and after the handler call: [lo, hi] must contain it, and
/// the disciplined reading must lie within its own error bound of it.
bool served_ok(const runtime::ClientResp& r, double before, double after) {
  if (!(r.lo <= after && r.hi >= before)) return false;
  if (r.has_disc && !(r.disc_time - r.disc_err <= after &&
                      r.disc_time + r.disc_err >= before)) {
    return false;
  }
  return true;
}

}  // namespace

void run_serve_fleet(const RunOptions& opt, RunResult& res) {
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 3);
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) spans = std::make_unique<SpanLog>(60000);
  TraceCtx trace;
  const Truth truth;

  // --- Set-up: spec, node, source peer, fleet ----------------------------
  const SystemSpec spec({ClockSpec{0.0}, ClockSpec{kNodeRho}},
                        {LinkSpec{kSource, kNodeId, 0.0, 0.05}}, kSource);
  runtime::NodeConfig cfg;
  cfg.self = kNodeId;
  cfg.spec = spec;
  cfg.poll_period = kPoll;
  cfg.fate_timeout = kPoll;
  cfg.serve_max_clients = 16384;  // At least the fleet: nobody is refused.
  const double offset = rng.uniform(-100.0, 100.0);
  const double rate = 1.0 + rng.uniform(-0.5, 0.5) * kNodeRho;
  auto transport_owned = std::make_unique<BenchTransport>(truth, trace);
  BenchTransport& transport = *transport_owned;
  runtime::Node node(cfg, std::make_unique<OptimalCsa>(daemon_csa_options()),
                     std::make_unique<NodeClock>(truth, offset, rate, trace),
                     std::move(transport_owned));
  SourcePeer source(spec, truth);

  // The mesh link: datagrams in flight each way, delivered kMeshDelay
  // after they were sent.
  std::deque<BenchTransport::Mail> to_source;
  std::deque<BenchTransport::Mail> to_node;
  std::vector<std::vector<std::uint8_t>> answers;
  std::uint64_t mesh_calls = 0;
  // Moves due datagrams across the link: the source peer answers the
  // node's, and the node's handler takes the source's.  Returns the
  // node-handler ns spent.
  const auto service_mesh = [&]() -> std::int64_t {
    if (transport.has_mail()) transport.drain_mail(to_source);
    if (to_source.empty() && to_node.empty()) return 0;
    std::int64_t spent = 0;
    const double now = truth.now();
    while (!to_source.empty() && to_source.front().sent + kMeshDelay <= now) {
      answers.clear();
      source.handle(to_source.front().bytes, answers);
      to_source.pop_front();
      for (auto& bytes : answers) {
        to_node.push_back(BenchTransport::Mail{now, std::move(bytes)});
      }
    }
    while (!to_node.empty() && to_node.front().sent + kMeshDelay <= now) {
      trace.begin_op(0, "runtime.mesh_handle");
      const std::int64_t t0 = now_ns();
      transport.deliver(to_node.front().bytes);
      const std::int64_t t1 = now_ns();
      trace.begin_op(0, "");
      trace.add("runtime.mesh_handle", t0, t1);
      to_node.pop_front();
      spent += t1 - t0;
      ++mesh_calls;
    }
    return spent;
  };

  node.start();
  // First bounded estimate: serve the node's polls until the view bounds
  // the source (the first poll goes out half a period after start).
  const std::int64_t wait_start = now_ns();
  while (!node.estimate().bounded()) {
    service_mesh();
    if (now_ns() - wait_start > 10'000'000'000LL) {
      res.problem("node never reached a bounded estimate");
      node.stop();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::vector<serve::ClientEstimator> clients;
  clients.reserve(kClients);
  const std::uint64_t id_base = rng.next_u64() | (1ULL << 63);
  for (std::size_t i = 0; i < kClients; ++i) {
    serve::ClientEstimator::Options copts;
    copts.client_id = id_base ^ i;
    clients.emplace_back(copts);
  }

  // One request/response exchange.  Fills the op's timings; false when no
  // accepted reply came back (a failed op).
  std::vector<std::uint8_t> req_bytes;
  std::vector<std::uint8_t> reply;
  std::uint64_t decoded_replies = 0;
  std::uint64_t unsound = 0;
  double width_sum = 0.0;
  runtime::ClientResp last_resp;
  double last_before = 0.0;
  double last_after = 0.0;
  struct OpTiming {
    std::int64_t handle_ns = 0;
    std::int64_t client_ns = 0;
    std::uint64_t allocs = 0;
    std::size_t reply_bytes = 0;
  };
  const auto exchange = [&](serve::ClientEstimator& client, std::uint64_t op,
                            OpTiming& t) -> bool {
    const std::int64_t c0 = now_ns();
    runtime::encode_datagram_into(
        req_bytes, Datagram{client.make_request(truth.now())});
    trace.begin_op(op, "runtime.handle");
    const double before = truth.now();
    const std::uint64_t a0 = alloc_stats::allocations();
    const std::int64_t h0 = now_ns();
    transport.deliver(req_bytes);
    const std::int64_t h1 = now_ns();
    t.allocs = alloc_stats::allocations() - a0;
    const double after = truth.now();
    trace.begin_op(op, "");
    bool ok = transport.take_reply(reply);
    t.reply_bytes = reply.size();
    const runtime::ClientResp* resp = nullptr;
    Datagram d;
    if (ok) {
      try {
        d = runtime::decode_datagram(reply);
        resp = std::get_if<runtime::ClientResp>(&d);
      } catch (const WireError&) {
        resp = nullptr;
      }
    }
    ok = resp != nullptr;
    if (ok) {
      ++decoded_replies;
      ok = client.on_response(*resp, truth.now());
      if (!served_ok(*resp, before, after)) ++unsound;
      width_sum += resp->hi - resp->lo;
      last_resp = *resp;
      last_before = before;
      last_after = after;
    }
    const std::int64_t c1 = now_ns();
    t.handle_ns = h1 - h0;
    t.client_ns = (c1 - c0) - t.handle_ns;
    if (trace.on()) {
      trace.add("runtime.handle", h0, h1);
      trace.add("serve.client_req", c0, h0);
      trace.add("serve.client_resp", h1, c1);
    }
    return ok;
  };

  // Seat every session with one untimed request.
  std::uint64_t setup_failed = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    OpTiming t;
    if (!exchange(clients[i], 0, t)) ++setup_failed;
    service_mesh();
  }
  if (setup_failed > 0) {
    res.problem(std::to_string(setup_failed) +
                " clients were not seated during set-up");
  }
  const double setup_s = seconds_since_start();
  if (opt.setup_only) {
    node.stop();
    res.add("setup_s", setup_s, "s");
    return;
  }
  width_sum = 0.0;  // The width metric covers the timed phase only.

  // --- Timed phase ---------------------------------------------------------
  std::vector<Chunk> chunks;
  std::uint64_t scrape_bytes_total = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t scrape_failures = 0;
  std::uint64_t op = 0;
  std::size_t next_client = 0;
  std::uint64_t resteers = node.stats().clock_resteers;
  trace.arm(spans.get());
  const std::int64_t timed_start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  while (chunks.empty() || now_ns() - timed_start < budget) {
    Chunk chunk;
    chunk.layer.assign(kServeLayers, 0.0);
    chunk.op_us.reserve(kChunkRequests / kSampleEvery);
    const std::uint64_t mesh_before = mesh_calls;
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < kChunkRequests; ++k) {
      OpTiming t;
      ++op;
      if (!exchange(clients[next_client], op, t)) ++res.failed;
      next_client = next_client + 1 == kClients ? 0 : next_client + 1;
      if (k % kSampleEvery == 0) {
        chunk.op_us.push_back(static_cast<float>(t.handle_ns) * 1e-3f);
      }
      chunk.layer[kHandleNs] += static_cast<double>(t.handle_ns);
      chunk.layer[kClientNs] += static_cast<double>(t.client_ns);
      chunk.layer[kAllocs] += static_cast<double>(t.allocs);
      chunk.layer[kReplyBytes] += static_cast<double>(t.reply_bytes);
      chunk.layer[kMeshHandleNs] += static_cast<double>(service_mesh());
      if ((k + 1) % kScrapeEvery == 0) {
        trace.begin_op(op, "runtime.scrape");
        runtime::encode_datagram_into(
            req_bytes, Datagram{runtime::MetricsReq{op, 0}});
        const std::int64_t s0 = now_ns();
        transport.deliver(req_bytes);
        const std::int64_t s1 = now_ns();
        trace.begin_op(op, "");
        trace.add("runtime.scrape", s0, s1);
        std::vector<std::uint8_t> scrape;
        if (transport.take_reply(scrape) && !scrape.empty()) {
          chunk.layer[kScrapeBytes] += static_cast<double>(scrape.size());
          scrape_bytes_total += scrape.size();
          try {
            if (!std::holds_alternative<runtime::MetricsResp>(
                    runtime::decode_datagram(scrape))) {
              ++scrape_failures;
            }
          } catch (const WireError&) {
            ++scrape_failures;
          }
        } else {
          ++scrape_failures;
        }
        chunk.layer[kScrapeNs] += static_cast<double>(s1 - s0);
        chunk.layer[kScrapes] += 1.0;
        ++scrapes;
      }
    }
    chunk.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    chunk.ops = kChunkRequests;
    chunk.layer[kMeshHandles] = static_cast<double>(mesh_calls - mesh_before);
    const std::uint64_t now_resteers = node.stats().clock_resteers;
    chunk.layer[kResteers] = static_cast<double>(now_resteers - resteers);
    resteers = now_resteers;
    chunks.push_back(std::move(chunk));
  }
  const double timed_s = static_cast<double>(now_ns() - timed_start) * 1e-9;
  const double peak_mb = peak_rss_mb();  // Before any check runs.

  // --- Correctness -----------------------------------------------------------
  const runtime::NodeStats stats = node.stats();
  node.stop();
  trace.arm(nullptr);
  const ChunkSummary s = summarize(chunks);
  res.attempted = op;
  if (unsound > 0) {
    res.problem(std::to_string(unsound) +
                " served intervals or disciplined readings miss true time");
  }
  if (stats.serve_requests != decoded_replies) {
    res.problem("node answered " + std::to_string(stats.serve_requests) +
                " requests but " + std::to_string(decoded_replies) +
                " responses were decoded");
  }
  if (scrape_failures > 0) {
    res.problem(std::to_string(scrape_failures) + " scrapes got no reply");
  }
  const SourcePeer::Counters& sc = source.counters();
  if (sc.skips > 0 || sc.loss_decls > 0 || sc.renounced > 0 ||
      sc.bad_dgrams > 0 || stats.loss_declarations > 0 ||
      stats.infeasible_rejected + stats.suspect_rejected +
              stats.cross_check_failures + stats.replay_rejected >
          0) {
    res.problem("mesh peer saw skip commits, losses or renounced data (" +
                std::to_string(sc.skips) + " skips, " +
                std::to_string(sc.loss_decls + stats.loss_declarations) +
                " losses, " + std::to_string(sc.renounced) +
                " refused by the source)");
  }
  if (sc.data_in == 0 || sc.data_out == 0) {
    res.problem("no mesh traffic ran beside the reads");
  }
  // Planted fault: the last served reply shifted past true time must fail.
  runtime::ClientResp shifted = last_resp;
  const double w = shifted.hi - shifted.lo;
  shifted.lo = last_after + 1e-3;
  shifted.hi = shifted.lo + w;
  if (served_ok(shifted, last_before, last_after)) {
    res.problem("self-check: a reply shifted past true time passed");
  }

  std::fprintf(stderr,
               "perfbench serve_fleet: %zu chunks of %zu requests; fast %.0f "
               "req/s, whole-run mean %.0f req/s; handler mean %.3f us; "
               "percentiles over %zu sampled ops; %llu mesh datagrams "
               "(%.1f polls/s), %llu scrapes\n",
               s.chunks, kChunkRequests, s.ops_per_s, s.mean_ops_per_s,
               s.mean_op_us, s.op_samples,
               static_cast<unsigned long long>(mesh_calls),
               static_cast<double>(sc.data_in) / timed_s,
               static_cast<unsigned long long>(scrapes));

  if (!opt.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", s.ops_per_s, "ops/s");
    res.add("op_p50_us", s.op_p50_us, "us");
    res.add("op_p90_us", s.op_p90_us, "us");
    res.add("width_us", width_sum / static_cast<double>(op) * 1e6, "us");
    res.add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  double mesh_handles = 0.0;
  double mesh_total_ns = 0.0;
  double scrape_ns = 0.0;
  for (const Chunk& c : chunks) {
    mesh_handles += c.layer[kMeshHandles];
    mesh_total_ns += c.layer[kMeshHandleNs];
    scrape_ns += c.layer[kScrapeNs];
  }
  res.add("runtime.handle_us", fast_mean_per_op(chunks, s, kHandleNs) * 1e-3,
          "us");
  res.add("runtime.allocs_per_op", fast_mean_per_op(chunks, s, kAllocs),
          "count");
  res.add("runtime.reply_bytes", fast_mean_per_op(chunks, s, kReplyBytes),
          "B");
  res.add("runtime.mesh_handle_us",
          mesh_handles > 0 ? mesh_total_ns / mesh_handles * 1e-3 : 0.0, "us");
  res.add("runtime.scrape_us",
          scrapes > 0 ? scrape_ns / static_cast<double>(scrapes) * 1e-3 : 0.0,
          "us");
  res.add("runtime.scrape_bytes",
          scrapes > 0 ? static_cast<double>(scrape_bytes_total) /
                            static_cast<double>(scrapes)
                      : 0.0,
          "B");
  res.add("clock.resteers_per_op", fast_mean_per_op(chunks, s, kResteers),
          "count");
  res.add("serve.client_us", fast_mean_per_op(chunks, s, kClientNs) * 1e-3,
          "us");
  res.add("serve.sessions", static_cast<double>(stats.serve_active), "count");
  std::fprintf(stderr,
               "perfbench serve_fleet traced: fast %.0f req/s, p50 %.3f us, "
               "p90 %.3f us; %zu spans kept, %llu dropped\n",
               s.ops_per_s, s.op_p50_us, s.op_p90_us, spans->size(),
               static_cast<unsigned long long>(spans->dropped()));
  if (!opt.trace_out.empty()) spans->write_chrome_json(opt.trace_out);
}

}  // namespace perfbench
