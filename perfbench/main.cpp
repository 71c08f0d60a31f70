// aapx_perfbench — the repository benchmark binary.
//
//   aapx_perfbench --workload paper_flow|gate_timing|serve_mix --seed N
//                  --seconds S --trace 0|1 [--out-dir D]
//   aapx_perfbench --selftest loadgen
//   aapx_perfbench --sweep RATE[,RATE...] [--seed N] [--seconds S]
//
// Prints one JSON object as the last line of stdout: correct / attempted /
// failed, the end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1), the output digest and the deterministic work counters.
// The same plus failures and, when traced, the per-layer self-time table
// are written to D/<workload>-seed<N>-trace<T>.json. --sweep runs the
// serve_mix traffic at each rate for S seconds and prints a table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Largest share of the wall time a traced run leaves to no layer: the
// root span's own self time plus the time outside the root span.
constexpr double kLayerSumTolerance = 0.01;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "aapx_perfbench: %s\nusage: aapx_perfbench --workload "
               "paper_flow|gate_timing|serve_mix --seed N --seconds S "
               "--trace 0|1 [--out-dir D]\n"
               "       aapx_perfbench --selftest loadgen\n"
               "       aapx_perfbench --sweep RATE[,RATE...] [--seed N] "
               "[--seconds S]\n",
               why.c_str());
  std::exit(2);
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Result& r,
                         const std::vector<std::string>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = r.metrics.find(names[i]);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += json_str(names[i]) + ": {\"value\": " + json_num(v) +
           ", \"unit\": " + json_str(metric_units().at(names[i])) + "}";
  }
  return out + "}";
}

void write_details(const Args& args, const Result& r, bool correct,
                   double wall_s) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "aapx_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"workload\": " << json_str(args.workload)
     << ",\n  \"seed\": " << args.seed
     << ",\n  \"trace\": " << (args.trace ? 1 : 0)
     << ",\n  \"correct\": " << (correct ? "true" : "false")
     << ",\n  \"attempted\": " << r.attempted
     << ",\n  \"failed\": " << r.failed
     << ",\n  \"wall_s\": " << json_num(wall_s)
     << ",\n  \"digest\": " << json_str(hex64(r.digest))
     << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    os << (first ? "\n    " : ",\n    ") << json_str(k) << ": " << v;
    first = false;
  }
  os << "\n  },\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? ", " : "") << json_str(r.failures[i]);
  }
  os << "],\n  \"metrics\": {";
  first = true;
  for (const auto& [k, v] : r.metrics) {
    os << (first ? "\n    " : ",\n    ") << json_str(k) << ": "
       << json_num(v);
    first = false;
  }
  os << "\n  }";
  if (args.trace) {
    // Per-layer self-time table: the rows partition the traced wall time.
    os << ",\n  \"layer_tolerance\": " << json_num(kLayerSumTolerance)
       << ",\n  \"layers\": [";
    first = true;
    for (const auto& [layer, self] : layers().self_s()) {
      os << (first ? "\n    " : ",\n    ") << "{\"layer\": "
         << json_str(layer) << ", \"self_s\": " << json_num(self)
         << ", \"share\": " << json_num(self / wall_s) << "}";
      first = false;
    }
    os << "\n  ]";
  }
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string selftest;
  std::vector<double> sweep_rates;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--selftest") {
        selftest = value;
      } else if (flag == "--sweep") {
        for (std::size_t at = 0; at <= value.size();) {
          const std::size_t comma = std::min(value.find(',', at), value.size());
          sweep_rates.push_back(std::stod(value.substr(at, comma - at)));
          at = comma + 1;
        }
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (selftest == "loadgen") return selftest_loadgen() ? 0 : 1;
  if (!selftest.empty()) usage("unknown self-test " + selftest);
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (!sweep_rates.empty()) {
    for (const double r : sweep_rates) {
      if (!(r > 0.0)) usage("--sweep rates must be positive");
    }
    aapx::set_num_threads(worker_count());
    try {
      sweep_serve_mix(args, sweep_rates);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aapx_perfbench: sweep: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!have_workload) usage("--workload is required");

  aapx::set_num_threads(worker_count());
  layers().set_enabled(args.trace);
  Result result;
  const double t0 = now_s();
  try {
    Span root("bench");
    if (args.workload == "paper_flow") {
      run_paper_flow(args, result);
    } else if (args.workload == "gate_timing") {
      run_gate_timing(args, result);
    } else if (args.workload == "serve_mix") {
      run_serve_mix(args, result);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aapx_perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const double wall_s = now_s() - t0;

  if (args.trace) {
    // The named rows (library layers and the benchmark's own rows, such as
    // setup, generator and untraced passes) must cover the wall time; what
    // is left is the root span's own time between them plus the time
    // outside it.
    double sum = 0.0;
    for (const auto& [layer, self] : layers().self_s()) {
      if (layer != "bench") sum += self;
    }
    const double err = (wall_s - sum) / wall_s;
    result.metrics["bench.self_s"] = layers().self_of("bench");
    result.metrics["obs.layer_sum_error"] = err;
    result.check(err >= 0.0 && err <= kLayerSumTolerance,
                 "layer self times sum to the wall time");
  } else {
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    result.metrics["ok_share"] =
        1.0 - static_cast<double>(result.failed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      result.attempted, 1));
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  write_details(args, result, correct, wall_s);
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "aapx_perfbench: FAILED %s\n", f.c_str());
  }
  std::string counters;
  for (const auto& [k, v] : result.counters) {
    counters += (counters.empty() ? "" : ", ") + json_str(k) + ": " +
                std::to_string(v);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"digest\": %s, \"counters\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result, args.trace ? per_layer_names()
                                              : end_to_end_names())
                  .c_str(),
              json_str(hex64(result.digest)).c_str(), counters.c_str());
  std::fflush(stdout);
  return 0;
}
