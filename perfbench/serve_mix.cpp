// serve_mix — open-loop load on an in-process `aapx serve` with a warm
// store.
//
// Setup characterizes a fixed library, saves it, opens the file into the
// server's root Context, starts a 2-worker server on a unix socket and
// touches every query once. One generator thread then pipelines frames over
// two connections on a seeded Poisson schedule at three fixed rates. The
// mix is mostly aged_delay queries and characterize store hits, plus a
// small fixed share of characterize misses whose specs are drawn from a
// seeded space the store does not hold. Every query reply is compared byte
// for byte with the benchmark's own local computation, and so is a seeded
// sample of the miss replies.
//
// A traced run adds one phase on a second server over TCP, with the client
// held in delayed-ACK mode, to measure what the TCP transport adds to the
// server's own latency (service.transport_p50_ms).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

using namespace aapx;
using namespace aapx::service;

namespace perfbench {
namespace {

enum Cls { kDelay = 0, kHit = 1, kMiss = 2, kClasses = 3 };

struct RateLevel {
  const char* name;
  double per_s;
};
// From the saturation sweep in README.md (`aapx_perfbench --sweep`): low
// and mid sit well below capacity, high is where misses holding both
// workers make queries queue behind them (head-of-line blocking).
constexpr RateLevel kRates[] = {{"low", 2000.0}, {"mid", 6000.0},
                                {"high", 24000.0}};
constexpr double kHitShare = 0.28;
constexpr double kMissShare = 0.02;
constexpr double kQueryP99LimitS = 0.001;
constexpr double kBacklogTolerance = 16.0;
constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
constexpr std::size_t kMissChecksPerPhase = 8;
constexpr int kSetupRepeats = 5;
constexpr double kPhaseTimeoutS = 10.0;

const AgingScenario kScenario{StressMode::worst, 10.0};

/// The stored library: every request the query classes send.
struct Catalogue {
  std::vector<CharacterizeRequest> hits;
  std::vector<AgedDelayRequest> delays;
};

Catalogue make_catalogue() {
  Catalogue c;
  for (const AdderArch arch :
       {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
    for (const int width : {16, 24, 32}) {
      CharacterizeRequest req;
      req.spec = {ComponentKind::adder, width, 0, arch, MultArch::array};
      req.scenarios = {kScenario};
      req.min_precision = width - 8;
      c.hits.push_back(req);
    }
  }
  for (const CharacterizeRequest& h : c.hits) {
    for (int t = 0; t <= 8; ++t) {
      for (const double years : {0.0, kScenario.years}) {
        AgedDelayRequest d;
        d.spec = h.spec;
        d.spec.truncated_bits = t;
        d.mode = kScenario.mode;
        d.years = years;
        c.delays.push_back(d);
      }
    }
  }
  return c;
}

/// The k-th characterize request the store does not hold: a 12-bit cla4
/// adder, a width the store lacks, with its own STA output load (a seeded
/// offset plus k), so no two misses share a surface. Every miss is the same
/// sweep over one netlist family, so misses cost alike and their latency
/// has one mode; the first miss of a run also synthesizes the family.
CharacterizeRequest miss_request(std::uint64_t seed, std::size_t k) {
  CharacterizeRequest req;
  req.spec = {ComponentKind::adder, 12, 0, AdderArch::cla4, MultArch::array};
  req.scenarios = {kScenario};
  req.min_precision = req.spec.width - 4;
  req.sta.primary_output_load =
      4.25 + static_cast<double>(seed % 1000) * 1e-4 +
      static_cast<double>(k) * 1e-3;
  return req;
}

/// The benchmark's own answers, computed on a private Context.
class Reference {
 public:
  Reference() : lib_(make_nangate45_like()), ctx_(options()) {}

  std::string surface(const CharacterizeRequest& req) {
    CharacterizerOptions copts;
    copts.min_precision = req.min_precision;
    copts.precision_step = req.precision_step;
    copts.sta = req.sta;
    const ComponentCharacterizer ch(ctx_, lib_, model_, copts);
    engine::SurfacePayload p;
    p.lib_fp = ctx_.store().fingerprint(lib_);
    p.params = model_.params();
    p.sta = req.sta;
    p.min_precision = req.min_precision;
    p.precision_step = req.precision_step;
    p.scenarios = req.scenarios;
    p.surface = ch.characterize(req.spec, req.scenarios);
    return encode_surface_response(p);
  }

  std::string delay(const AgedDelayRequest& req) {
    return encode_delay_response({ctx_.store().aged_sta_delay(
        lib_, req.spec, model_, req.mode, req.years, req.sta)});
  }

 private:
  static Context::Options options() {
    Context::Options o;
    o.threads = 1;
    return o;
  }
  CellLibrary lib_;
  AgingModel model_;
  Context ctx_;
};

/// Characterizes the stored library and saves it to `path`.
void build_store(const Catalogue& cat, int workers, const std::string& path,
                 Result& result) {
  std::remove(path.c_str());
  Context::Options o;
  o.threads = workers;
  o.metrics = &obs::metrics();
  const Context build(o);
  const CellLibrary lib = make_nangate45_like();
  {
    Span span("sta");
    for (const CharacterizeRequest& req : cat.hits) {
      CharacterizerOptions copts;
      copts.min_precision = req.min_precision;
      (void)ComponentCharacterizer(build, lib, AgingModel{}, copts)
          .characterize(req.spec, req.scenarios);
    }
  }
  Span span("engine.save");
  result.check(build.store().save(path), "library store saves");
}

/// A running server on a warm store, plus its client connections.
struct Rig {
  std::unique_ptr<Context> root;
  std::unique_ptr<Server> server;
  std::vector<int> fds;
  std::string socket_path;  ///< unix socket file to remove, if any

  ~Rig() {
    for (const int fd : fds) close_fd(fd);
    if (server) server->stop();
    if (!socket_path.empty()) std::remove(socket_path.c_str());
  }
};

/// Opens the saved store into a fresh root Context, serves it on `listen`
/// (unix:<path> or tcp:0) and touches every query once, so the timed
/// region sees a warm store. `metrics` = nullptr gives the root a private
/// registry.
std::unique_ptr<Rig> open_rig(const Catalogue& cat, int workers,
                              const std::string& path,
                              const std::string& listen,
                              obs::MetricsRegistry* metrics, Result& result) {
  auto rig = std::make_unique<Rig>();
  Context::Options o;
  o.threads = workers;
  o.metrics = metrics;
  rig->root = std::make_unique<Context>(o);
  {
    Span span("engine.open");
    result.check(rig->root->store().open(path), "server store opens");
  }
  const bool tcp = listen.rfind("tcp:", 0) == 0;
  std::string err;
  {
    Span span("service.start");
    ServerOptions so;
    so.listen = listen;
    so.workers = kServerWorkers;
    rig->server = std::make_unique<Server>(*rig->root, so);
    if (!rig->server->start(&err)) {
      throw std::runtime_error("server start: " + err);
    }
    if (!tcp) rig->socket_path = listen.substr(5);
    for (int i = 0; i < kConnections; ++i) {
      const int fd = connect_endpoint(rig->server->endpoint(), &err);
      if (fd < 0) throw std::runtime_error("connect: " + err);
      if (tcp) set_nodelay(fd);
      rig->fds.push_back(fd);
    }
  }
  Span span("service.warmup");
  std::uint64_t id = 1u << 30;
  std::uint64_t bad = 0;
  Frame reply;
  for (const CharacterizeRequest& req : cat.hits) {
    bad += !roundtrip(rig->fds[0], {MsgType::characterize, ++id, 0, encode_request(req)},
                      &reply, 10000) ||
           reply.type != MsgType::ok_surface;
  }
  for (const AgedDelayRequest& req : cat.delays) {
    bad += !roundtrip(rig->fds[0], {MsgType::aged_delay, ++id, 0, encode_request(req)},
                      &reply, 10000) ||
           reply.type != MsgType::ok_delay;
  }
  result.ops(cat.hits.size() + cat.delays.size(), bad, "warm-up requests");
  return rig;
}

StatsResponse server_stats(const Rig& rig, Result& result) {
  Frame reply;
  const bool got = roundtrip(rig.fds[0], {MsgType::stats, 1, 0, ""}, &reply,
                             10000) &&
                   reply.type == MsgType::ok_stats;
  result.check(got, "stats op answers");
  return got ? decode_stats_response(reply.payload) : StatsResponse{};
}

/// Server-side admission-to-response quantile of aged_delay, in ms.
double server_delay_ms(const StatsResponse& stats, double q) {
  for (const StatsResponse::OpLatency& op : stats.ops) {
    if (static_cast<MsgType>(op.op) != MsgType::aged_delay) continue;
    obs::HistogramSample s;
    s.count = op.count;
    s.sum = op.sum_us;
    s.min = op.min_us;
    s.max = op.max_us;
    for (const auto& [index, count] : op.buckets) s.buckets.push_back({index, count});
    return obs::histogram_quantile(s, q) / 1e3;
  }
  return 0.0;
}

/// One rate level's schedule, what its replies must be, and its outcome.
struct Phase {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Request> schedule;
  std::vector<std::size_t> item;  ///< catalogue index (query) or miss index
  /// Seeded sample of miss replies kept for a local recomputation, chosen
  /// by request index so it does not depend on reply order.
  std::map<std::size_t, std::string> miss_replies;
  LoadResult load;
  double queue_max = 0.0;  ///< largest server queue depth seen
};

/// The seeded request mix and the expected reply bytes of every query.
class Traffic {
 public:
  Traffic(const Catalogue& cat, std::uint64_t seed, Reference& ref)
      : cat_(cat), seed_(seed), mix_(seed * 0xff51afd7ed558ccdULL + 1) {
    Span span("check.reference");
    for (const CharacterizeRequest& r : cat.hits) hit_bytes_.push_back(ref.surface(r));
    for (const AgedDelayRequest& r : cat.delays) delay_bytes_.push_back(ref.delay(r));
  }

  std::uint64_t query_digest() const {
    std::uint64_t d = kFnvBasis;
    for (const std::string& b : hit_bytes_) d = fnv_str(d, b);
    for (const std::string& b : delay_bytes_) d = fnv_str(d, b);
    return d;
  }

  /// Phase `index` at `rate` req/s for `seconds`.
  Phase plan(const std::string& name, double rate, double seconds,
             std::size_t index) {
    Span span("gen.schedule");
    Phase ph{name, rate, seconds, {}, {}, {}, {}, 0.0};
    const auto count = static_cast<std::size_t>(rate * seconds);
    const std::vector<double> at = poisson_times(seed_ * 131 + index, rate, count, 0.0);
    ph.schedule.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double u = mix_.next_double();
      Request r;
      r.at = at[i];
      r.conn = static_cast<int>(i % kConnections);
      Frame f;
      f.request_id = i + 1;
      if (u < kMissShare) {
        r.cls = kMiss;
        ph.item.push_back(misses_.size());
        misses_.push_back(miss_request(seed_, misses_.size()));
        if (ph.miss_replies.size() < kMissChecksPerPhase &&
            fnv_u64(seed_, i) % 3 == 0) {
          ph.miss_replies[i];
        }
        f.type = MsgType::characterize;
        f.payload = encode_request(misses_.back());
      } else if (u < kMissShare + kHitShare) {
        r.cls = kHit;
        ph.item.push_back(mix_.next_below(cat_.hits.size()));
        f.type = MsgType::characterize;
        f.payload = encode_request(cat_.hits[ph.item.back()]);
      } else {
        r.cls = kDelay;
        ph.item.push_back(mix_.next_below(cat_.delays.size()));
        f.type = MsgType::aged_delay;
        f.payload = encode_request(cat_.delays[ph.item.back()]);
      }
      r.bytes = encode_frame(f);
      ph.schedule.push_back(std::move(r));
    }
    return ph;
  }

  /// Runs the phase on `rig`; every query reply must match its local
  /// answer, and every miss must be answered with a surface.
  void run(Rig& rig, Phase& ph, bool hold_delayed_ack) const {
    const OnReply check = [&](std::size_t i, const Frame& reply) {
      switch (ph.schedule[i].cls) {
        case kDelay: return reply.payload == delay_bytes_[ph.item[i]];
        case kHit: return reply.payload == hit_bytes_[ph.item[i]];
        default:
          if (const auto it = ph.miss_replies.find(i); it != ph.miss_replies.end()) {
            it->second = reply.payload;
          }
          return reply.type == MsgType::ok_surface;
      }
    };
    obs::Gauge& depth = rig.root->metrics().gauge("service.queue.depth");
    depth.reset();
    ph.load = run_open_loop(rig.fds, ph.schedule, kClasses, check,
                            kPhaseTimeoutS, hold_delayed_ack);
    ph.queue_max = depth.max();
  }

  /// Recomputes the sampled miss replies locally and books the phase's
  /// requests; returns the digest extended by the checked replies.
  std::uint64_t verify(const Phase& ph, Reference& ref, Result& result,
                       std::uint64_t digest) const {
    Span span("check.reference");
    for (const auto& [i, bytes] : ph.miss_replies) {
      const bool same = bytes == ref.surface(misses_[ph.item[i]]);
      result.check(same, "sampled miss reply is byte-identical to the local answer");
      digest = fnv_str(digest, bytes);
    }
    for (int c = 0; c < kClasses; ++c) {
      const ClassStats& cs = ph.load.classes[static_cast<std::size_t>(c)];
      result.ops(cs.sent, cs.failed,
                 ph.name + " class " + std::to_string(c) + " requests");
      result.counters[ph.name + ".class" + std::to_string(c) + ".sent"] = cs.sent;
      result.counters[ph.name + ".class" + std::to_string(c) + ".ok"] = cs.ok;
    }
    return digest;
  }

 private:
  const Catalogue& cat_;
  std::uint64_t seed_;
  Rng mix_;
  std::vector<CharacterizeRequest> misses_;
  std::vector<std::string> hit_bytes_, delay_bytes_;
};

/// Latencies of the query classes (aged_delay and surface hits).
std::vector<double> query_latencies(const LoadResult& l) {
  std::vector<double> v = l.classes[kDelay].latency_s;
  v.insert(v.end(), l.classes[kHit].latency_s.begin(), l.classes[kHit].latency_s.end());
  return v;
}

std::uint64_t failed_requests(const LoadResult& l) {
  std::uint64_t failed = 0;
  for (const ClassStats& cs : l.classes) failed += cs.failed;
  return failed;
}

std::string store_path(const Args& args) {
  return args.out_dir + "/serve_mix-seed" + std::to_string(args.seed) + ".store";
}

/// A relative path keeps the socket name within the unix path limit
/// wherever the checkout lives.
std::string unix_listen(const Args& args) {
  return "unix:" + args.out_dir + "/serve_mix-seed" + std::to_string(args.seed) + ".sock";
}

}  // namespace

void run_serve_mix(const Args& args, Result& result) {
  const int workers = worker_count();
  const std::string path = store_path(args);
  const Catalogue cat = make_catalogue();

  std::vector<double> setup;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    {
      Span span("service.stop");
      rig.reset();
    }
    const double t = now_s();
    Span span("setup");
    build_store(cat, workers, path, result);
    rig = open_rig(cat, workers, path, unix_listen(args), &obs::metrics(), result);
    setup.push_back(now_s() - t);
  }

  Reference ref;
  Traffic traffic(cat, args.seed, ref);
  std::uint64_t digest = traffic.query_digest();

  // Phases: the three rates, each for a third of the run; a traced run
  // first repeats the mid rate untraced to measure the tracing overhead.
  std::vector<Phase> phases;
  std::size_t index = 0;
  if (args.trace) {
    phases.push_back(traffic.plan("untraced", kRates[1].per_s, args.seconds / 3, index++));
  }
  for (const RateLevel& r : kRates) {
    phases.push_back(traffic.plan(r.name, r.per_s, args.seconds / 3, index++));
  }
  for (Phase& ph : phases) {
    const bool untraced = ph.name == "untraced";
    std::unique_ptr<Span> hold;
    if (untraced) {
      hold = std::make_unique<Span>("untraced");
      layers().set_enabled(false);
    }
    traffic.run(*rig, ph, false);
    if (untraced) layers().set_enabled(true);
    hold.reset();
    digest = traffic.verify(ph, ref, result, digest);
  }

  // Server-side view from the in-band stats op.
  const StatsResponse stats = server_stats(*rig, result);
  result.counters["server.requests"] = stats.requests;
  result.counters["server.completed"] = stats.completed;
  const engine::DesignStore::Stats store_stats = rig->root->store().stats();
  {
    Span span("service.stop");
    rig.reset();
  }

  // Transport (traced runs): the mid rate once more on a second server
  // over TCP, with the client held in delayed-ACK mode. What the client
  // sees beyond the server's own latency is the transport's share.
  Phase tcp;
  StatsResponse tcp_stats;
  if (args.trace) {
    tcp = traffic.plan("tcp", kRates[1].per_s, args.seconds / 3, index++);
    {
      std::unique_ptr<Rig> tcp_rig = open_rig(cat, workers, path, "tcp:0", nullptr, result);
      traffic.run(*tcp_rig, tcp, true);
      tcp_stats = server_stats(*tcp_rig, result);
      Span span("service.stop");
      tcp_rig.reset();
    }
    digest = traffic.verify(tcp, ref, result, digest);
  }
  std::remove(path.c_str());
  result.digest = digest;

  Span report("report");
  std::vector<double> all_queries, all_misses, all_lag;
  for (const Phase& ph : phases) {
    if (ph.name == "untraced") continue;
    const std::vector<double> q = query_latencies(ph.load);
    all_queries.insert(all_queries.end(), q.begin(), q.end());
    const auto& ms = ph.load.classes[kMiss].latency_s;
    all_misses.insert(all_misses.end(), ms.begin(), ms.end());
    all_lag.insert(all_lag.end(), ph.load.lag_s.begin(), ph.load.lag_s.end());
  }

  if (!args.trace) {
    result.metrics["setup_s"] = median(setup);
    result.metrics["cold_s"] = median(all_misses);
    result.metrics["warm_s"] = median(all_queries);
    return;
  }

  auto& m = result.metrics;
  double max_qps = 0.0, queue_max = 0.0;
  for (const Phase& ph : phases) {
    if (ph.name == "untraced") continue;
    const std::vector<double> q = query_latencies(ph.load);
    const double p99 = quantile(q, 0.99);
    m["client.p50_ms." + ph.name] = median(q) * 1e3;
    m["client.p99_ms." + ph.name] = p99 * 1e3;
    queue_max = std::max(queue_max, ph.queue_max);
    if (p99 <= kQueryP99LimitS && failed_requests(ph.load) == 0 &&
        ph.load.backlog_growth <= kBacklogTolerance) {
      std::uint64_t ok = 0;
      for (const ClassStats& cs : ph.load.classes) ok += cs.ok;
      max_qps = std::max(max_qps, static_cast<double>(ok) / ph.load.elapsed_s);
    }
  }
  m["client.max_qps"] = max_qps;
  m["gen.lag_p99_ms"] = quantile(all_lag, 0.99) * 1e3;
  m["service.miss_p50_ms"] = median(all_misses) * 1e3;
  m["service.server_p50_ms"] = server_delay_ms(stats, 0.50);
  m["service.server_p99_ms"] = server_delay_ms(stats, 0.99);
  m["service.transport_p50_ms"] =
      median(tcp.load.classes[kDelay].latency_s) * 1e3 -
      server_delay_ms(tcp_stats, 0.50);
  m["service.shed"] = static_cast<double>(stats.shed);
  m["service.deduped"] = static_cast<double>(stats.deduped);
  m["service.cancelled"] = static_cast<double>(stats.cancelled);
  std::uint64_t hints = 0;
  for (const Phase& ph : phases) hints += ph.load.retry_hints;
  m["service.retries"] = static_cast<double>(hints);
  m["service.queue_depth_max"] = queue_max;
  m["engine.hit_ratio"] =
      static_cast<double>(store_stats.hits()) /
      static_cast<double>(std::max<std::uint64_t>(store_stats.hits() + store_stats.misses(), 1));
  const Layers& l = layers();
  m["engine.save_s"] = l.self_of("engine.save") / kSetupRepeats;
  m["engine.open_s"] = l.self_of("engine.open") / (kSetupRepeats + 1);
  m["sta.busy_s"] = l.self_of("sta") / kSetupRepeats;
  const std::vector<double> untraced_q = query_latencies(phases.front().load);
  const std::vector<double> traced_q = query_latencies(phases[2].load);  // mid
  m["obs.trace_overhead"] = median(traced_q) / median(untraced_q) - 1.0;
}

void sweep_serve_mix(const Args& args, const std::vector<double>& rates) {
  const std::string path = store_path(args);
  const Catalogue cat = make_catalogue();
  Result result;
  build_store(cat, worker_count(), path, result);
  Reference ref;
  Traffic traffic(cat, args.seed, ref);
  // One server for every rate, as in a run; rates go in the given order.
  std::unique_ptr<Rig> rig =
      open_rig(cat, worker_count(), path, unix_listen(args), nullptr, result);
  std::printf("%8s %8s %7s %6s %9s %9s %9s %9s %7s %8s %9s\n", "rate/s",
              "sent", "failed", "shed", "q_p50_ms", "q_p99_ms", "q_max_ms",
              "miss_p50", "queue", "backlog", "lag_p99");
  std::uint64_t shed_before = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    Phase ph = traffic.plan("sweep", rates[i], args.seconds, i);
    traffic.run(*rig, ph, false);
    const std::uint64_t shed = server_stats(*rig, result).shed;
    const std::vector<double> q = query_latencies(ph.load);
    std::uint64_t sent = 0;
    for (const ClassStats& cs : ph.load.classes) sent += cs.sent;
    std::printf("%8.0f %8llu %7llu %6llu %9.3f %9.3f %9.3f %9.3f %7.0f %8.0f %9.3f\n",
                rates[i], static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(failed_requests(ph.load)),
                static_cast<unsigned long long>(shed - shed_before),
                median(q) * 1e3, quantile(q, 0.99) * 1e3, quantile(q, 1.0) * 1e3,
                median(ph.load.classes[kMiss].latency_s) * 1e3, ph.queue_max,
                ph.load.backlog_growth, quantile(ph.load.lag_s, 0.99) * 1e3);
    std::fflush(stdout);
    shed_before = shed;
  }
  rig.reset();
  std::remove(path.c_str());
}

}  // namespace perfbench
