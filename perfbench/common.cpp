#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv_str(std::uint64_t h, const std::string& s) {
  h = fnv_u64(h, s.size());
  return fnv(h, s.data(), s.size());
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return fnv(h, &v, sizeof(v));
}

std::uint64_t fnv_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv_u64(h, bits);
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Layers::push(const char* layer) {
  stack_.push_back({layer, now_s(), 0.0});
}

void Layers::pop() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = now_s() - open.start;
  self_[open.layer] += dur - open.children;
  if (!stack_.empty()) stack_.back().children += dur;
}

double Layers::self_of(const std::string& layer) const {
  const auto it = self_.find(layer);
  return it == self_.end() ? 0.0 : it->second;
}

Layers& layers() {
  static Layers instance;
  return instance;
}

void Result::ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 8) {
    failures.push_back(what + ": " + std::to_string(bad) + " of " +
                       std::to_string(n) + " failed");
  }
}

void Result::check(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, "check " + what);
}

const std::map<std::string, std::string>& metric_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"ok_share", "ratio"},
        {"cold_s", "s"},
        {"warm_s", "s"},
        {"synth.netlists", "count"},
        {"synth.gates_removed", "count"},
        {"cell.aged_libraries", "count"},
        {"sta.aged_runs", "count"},
        {"sta.fresh_runs", "count"},
        {"gatesim.packed_lane_use", "ratio"},
        {"rtl.pixels", "count"},
        {"aging.dies", "count"},
        {"engine.bytes_written", "bytes"},
        {"engine.bytes_read", "bytes"},
        {"engine.hit_ratio", "ratio"},
        {"util.pool_use", "ratio"},
        {"gatesim.events", "count"},
        {"gatesim.steps", "count"},
        {"gatesim.events_per_op", "count"},
        {"gatesim.max_queue_depth", "count"},
        {"gatesim.ops_per_s", "1/s"},
        {"runtime.control_events", "count"},
        {"runtime.verify_vectors", "count"},
        {"service.shed", "count"},
        {"service.deduped", "count"},
        {"service.cancelled", "count"},
        {"service.retries", "count"},
        {"service.queue_depth_max", "count"},
        {"client.max_qps", "1/s"},
        {"obs.trace_overhead", "ratio"},
        {"obs.layer_sum_error", "ratio"},
    };
    for (const std::string& n : per_layer_names()) {
      if (u.count(n) != 0) continue;
      const bool ms = n.find("_ms") != std::string::npos;
      u[n] = ms ? "ms" : "s";
    }
    return u;
  }();
  return units;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "peak_rss_mb", "ok_share", "cold_s", "warm_s"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      // paper_flow
      "synth.busy_s", "synth.netlists", "synth.gates_removed",
      "cell.busy_s", "cell.aged_libraries",
      "sta.busy_s", "sta.aged_runs", "sta.fresh_runs",
      "core.busy_s",
      "gatesim.packed_busy_s", "gatesim.packed_lane_use",
      "rtl.busy_s", "rtl.pixels",
      "aging.busy_s", "aging.dies",
      "engine.save_s", "engine.open_s", "engine.lookup_s",
      "engine.bytes_written",
      "engine.bytes_read", "engine.hit_ratio",
      "util.pool_use",
      // gate_timing
      "gatesim.timed_busy_s", "gatesim.events", "gatesim.steps",
      "gatesim.events_per_op", "gatesim.max_queue_depth", "gatesim.ops_per_s",
      "sta.delays_s", "rtl.timed_busy_s",
      "runtime.busy_s", "runtime.control_events", "runtime.verify_vectors",
      // serve_mix
      "service.server_p50_ms", "service.server_p99_ms",
      "service.transport_p50_ms", "service.shed", "service.deduped",
      "service.cancelled", "service.retries", "service.queue_depth_max",
      "service.miss_p50_ms",
      "client.p50_ms.low", "client.p99_ms.low", "client.p50_ms.mid",
      "client.p99_ms.mid", "client.p50_ms.high", "client.p99_ms.high",
      "client.max_qps", "gen.lag_p99_ms",
      // every workload
      "bench.self_s", "obs.trace_overhead", "obs.layer_sum_error"};
  return names;
}

int worker_count() {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  return std::min(4, hw);
}

Counters counter_snapshot() {
  Counters out;
  for (const auto& [name, value] : aapx::obs::metrics().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

std::uint64_t delta(const Counters& before, const Counters& after,
                    const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

double global_gauge_max(const std::string& name) {
  return aapx::obs::metrics().gauge(name).max();
}

}  // namespace perfbench
