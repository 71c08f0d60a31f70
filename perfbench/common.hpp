// Shared plumbing of the repository benchmark: arguments, clocks, layer
// spans with self-time accounting, summary statistics, digests and the
// result record every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-results";
};

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Quantile with linear interpolation between order statistics, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// FNV-1a over bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n);
std::uint64_t fnv_str(std::uint64_t h, const std::string& s);
std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v);
std::uint64_t fnv_f64(std::uint64_t h, double v);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::string hex64(std::uint64_t v);

/// Layer spans recorded on the benchmark's main thread around calls into
/// the library's public functions. A layer's self time is its span's
/// duration minus the time covered by spans opened inside it; with spans
/// nested and single-threaded, self times partition the root span's wall.
class Layers {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void push(const char* layer);
  void pop();

  /// Self seconds per layer name, over every span closed so far.
  const std::map<std::string, double>& self_s() const { return self_; }
  double self_of(const std::string& layer) const;

 private:
  struct Open {
    const char* layer;
    double start;
    double children;
  };
  bool enabled_ = false;
  std::vector<Open> stack_;
  std::map<std::string, double> self_;
};

Layers& layers();

/// RAII span; a no-op unless tracing is on.
class Span {
 public:
  explicit Span(const char* layer) : on_(layers().enabled()) {
    if (on_) layers().push(layer);
  }
  ~Span() {
    if (on_) layers().pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// What one run of a workload produced.
struct Result {
  std::uint64_t attempted = 0;  ///< operations and output checks attempted
  std::uint64_t failed = 0;     ///< failed operations plus failed checks
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// end-to-end (untraced) or per-layer (traced) metrics, name -> value
  std::map<std::string, double> metrics;
  /// Deterministic work counters: identical for one seed on any run.
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t digest = kFnvBasis;  ///< over the checked outputs

  /// Counts `n` operations, `bad` of which failed.
  void ops(std::uint64_t n, std::uint64_t bad, const std::string& what);
  /// One output check.
  void check(bool ok, const std::string& what);
};

/// Units of every metric a run may print.
const std::map<std::string, std::string>& metric_units();

/// Names of the end-to-end and per-layer metrics, in print order. Every
/// workload prints all of them (a layer a workload never enters reads 0).
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// Pool worker count of every run: min(4, hardware threads).
int worker_count();

/// Every counter of the process-wide metrics registry (which every
/// benchmark Context reports into), for deltas around a phase.
using Counters = std::map<std::string, std::uint64_t>;
Counters counter_snapshot();
std::uint64_t delta(const Counters& before, const Counters& after,
                    const std::string& name);
double global_gauge_max(const std::string& name);

}  // namespace perfbench
