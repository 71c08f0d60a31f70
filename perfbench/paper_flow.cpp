// paper_flow — the paper's design-time pipeline, cold and warm.
//
// Cold pass (empty store): synthesize every netlist the re-synthesis sweep
// needs, build the aged cell libraries, characterize a library of adders,
// multipliers, MACs and clamps over the four paper corners, add one
// measured-stress characterization (packed simulation), run the IDCT flow,
// decode the nine sequences fresh and approximated into PSNR, run the
// lifetime Monte-Carlo on the chosen precision and save the store.
// Warm pass: open the saved file into a fresh Context and re-answer the
// characterizations and the flow, which must be bit-identical.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "core/characterizer.hpp"
#include "core/microarch.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "gatesim/simd.hpp"
#include "image/image.hpp"
#include "image/synthetic.hpp"
#include "obs/metrics.hpp"
#include "rtl/codec.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

using namespace aapx;

namespace perfbench {
namespace {

constexpr int kFrameSize = 48;          // pixels per side of each sequence
constexpr std::size_t kDutyVectors = 2048;  // measured-stress stimulus
constexpr int kLifetimeDies = 256;
constexpr int kMinPasses = 3;
constexpr int kSweepDepth = 8;  // precision points below full width

struct LibraryEntry {
  ComponentSpec spec;
  int min_precision;
};

ComponentSpec spec(ComponentKind kind, int width, AdderArch adder,
                   MultArch mult = MultArch::array) {
  return {kind, width, 0, adder, mult};
}

/// The characterized library: 32-bit-and-narrower adders, multipliers, MAC
/// and clamp, each swept from full precision down eight bits. The IDCT
/// blocks (32-bit cla4 multiplier and adder, clamp) are among them.
std::vector<LibraryEntry> library_specs() {
  using K = ComponentKind;
  using A = AdderArch;
  std::vector<LibraryEntry> out;
  for (const ComponentSpec& s : {
           spec(K::adder, 16, A::ripple), spec(K::adder, 32, A::ripple),
           spec(K::adder, 16, A::cla4), spec(K::adder, 32, A::cla4),
           spec(K::adder, 16, A::kogge_stone),
           spec(K::adder, 32, A::kogge_stone),
           spec(K::multiplier, 16, A::cla4, MultArch::array),
           spec(K::multiplier, 32, A::cla4, MultArch::array),
           spec(K::multiplier, 16, A::cla4, MultArch::wallace),
           spec(K::multiplier, 32, A::cla4, MultArch::wallace),
           spec(K::mac, 16, A::ripple, MultArch::array),
           spec(K::mac, 32, A::ripple, MultArch::array),
           spec(K::clamp, 16, A::cla4), spec(K::clamp, 32, A::cla4)}) {
    out.push_back({s, s.width - kSweepDepth});
  }
  return out;
}

std::vector<AgingScenario> corners() {
  return {{StressMode::balanced, 1.0},
          {StressMode::balanced, 10.0},
          {StressMode::worst, 1.0},
          {StressMode::worst, 10.0}};
}

/// Inputs of one run, made from the seed. Costs are seed-independent: the
/// seed moves stimulus values, image dither and Monte-Carlo draws only.
struct Inputs {
  CellLibrary lib;
  AgingModel model;
  AgingModel lifetime_model;
  std::vector<LibraryEntry> library;
  ComponentSpec duty_spec;
  StimulusSet duty_stimulus;
  MicroarchSpec idct;
  CodecConfig codec;
  std::vector<Image> frames;
  std::vector<QuantizedImage> coded;
  std::vector<WorkloadPhase> phases;
  std::uint64_t seed = 0;
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->lib = make_nangate45_like();
  AgingParams params;
  params.mechanisms = {MechanismKind::bti, MechanismKind::hci,
                       MechanismKind::em, MechanismKind::tddb};
  in->lifetime_model = AgingModel(params);
  in->library = library_specs();
  in->duty_spec = spec(ComponentKind::adder, 32, AdderArch::cla4);
  in->duty_stimulus =
      make_normal_stimulus(32, kDutyVectors, seed * 2654435761ULL + 11, 64.0);
  in->idct.name = "idct32";
  in->idct.blocks = {
      {"mult", spec(ComponentKind::multiplier, 32, AdderArch::cla4), false},
      {"acc", spec(ComponentKind::adder, 32, AdderArch::cla4), false},
      {"clamp", spec(ComponentKind::clamp, 32, AdderArch::cla4), false}};
  in->codec.frac_bits = 7;
  Rng rng(seed ^ 0x5bd1e995ULL);
  for (const std::string& name : video_trace_names()) {
    Image img = make_video_trace_frame(name, kFrameSize, kFrameSize);
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        img.set_clamped(x, y, img.at(x, y) + static_cast<int>(rng.next_int(-3, 3)));
      }
    }
    in->coded.push_back(encode_and_quantize(img, in->codec));
    in->frames.push_back(std::move(img));
  }
  in->phases = {{2.0, 0.15, 0.05, 328.15},
                {10.0, 0.50, 0.45, 358.15},
                {5.0, 0.75, 0.90, 368.15},
                {3.0, 0.50, 0.25, 388.15}};
  in->seed = seed;
  return in;
}

std::uint64_t digest_surface(std::uint64_t h,
                             const ComponentCharacterization& c) {
  h = fnv_str(h, c.base.name());
  for (const AgingScenario& s : c.scenarios) {
    h = fnv_u64(h, static_cast<std::uint64_t>(s.mode));
    h = fnv_f64(h, s.years);
  }
  for (const PrecisionPoint& p : c.points) {
    h = fnv_u64(h, static_cast<std::uint64_t>(p.precision));
    h = fnv_f64(h, p.fresh_delay);
    h = fnv_f64(h, p.area);
    h = fnv_u64(h, p.gates);
    for (const double d : p.aged_delay) h = fnv_f64(h, d);
  }
  return h;
}

std::uint64_t digest_plan(std::uint64_t h, const FlowResult& plan) {
  h = fnv_f64(h, plan.timing_constraint);
  h = fnv_u64(h, plan.timing_met ? 1 : 0);
  for (const BlockPlan& b : plan.blocks) {
    h = fnv_str(h, b.spec.name);
    h = fnv_f64(h, b.fresh_delay);
    h = fnv_f64(h, b.aged_delay_full);
    h = fnv_u64(h, static_cast<std::uint64_t>(b.chosen_precision));
    h = fnv_f64(h, b.aged_delay_final);
  }
  return h;
}

Context::Options context_options(int workers) {
  Context::Options o;
  o.threads = workers;
  o.metrics = &obs::metrics();
  return o;
}

CharacterizerOptions sweep_options(int min_precision) {
  CharacterizerOptions o;
  o.min_precision = min_precision;
  return o;
}

FlowOptions flow_options() {
  FlowOptions o;
  o.scenario = {StressMode::worst, 10.0};
  return o;
}

constexpr int kFlowMinPrecision = 24;

/// What a pass answers; cold and warm must agree bit for bit.
struct Answers {
  std::vector<std::uint64_t> surfaces;  ///< digest per library entry
  std::uint64_t plan = 0;
  std::vector<int> chosen;
};

struct ColdOutputs {
  Answers answers;
  std::uint64_t digest = kFnvBasis;  ///< PSNR, MTTF, measured delays, ...
};

/// Answers the characterizations and the IDCT flow against ctx's store.
Answers characterize_and_flow(const Context& ctx, const Inputs& in,
                              const char* char_layer, Result& result) {
  Answers a;
  {
    Span span(char_layer);
    for (const LibraryEntry& e : in.library) {
      const ComponentCharacterizer ch(ctx, in.lib, in.model,
                                      sweep_options(e.min_precision));
      a.surfaces.push_back(
          digest_surface(kFnvBasis, ch.characterize(e.spec, corners())));
    }
  }
  FlowResult plan;
  {
    Span span("core");
    MicroarchApproximator flow(ctx, in.lib, in.model,
                               sweep_options(kFlowMinPrecision));
    plan = flow.run(in.idct, flow_options());
  }
  a.plan = digest_plan(kFnvBasis, plan);
  for (const BlockPlan& b : plan.blocks) a.chosen.push_back(b.chosen_precision);

  // The flow's truncation of the critical block must be the Eq. 2 answer of
  // that block's own characterization at the flow's scenario.
  const auto critical = std::max_element(
      plan.blocks.begin(), plan.blocks.end(),
      [](const BlockPlan& x, const BlockPlan& y) {
        return x.fresh_delay < y.fresh_delay;
      });
  int eq2 = 0;
  {
    Span span(char_layer);
    const ComponentCharacterizer ch(ctx, in.lib, in.model,
                                    sweep_options(kFlowMinPrecision));
    eq2 = ch.characterize(critical->spec.component, {flow_options().scenario})
              .required_precision(0);
  }
  result.check(eq2 > 0 && critical->chosen_precision == eq2,
               "flow truncation of " + critical->spec.name +
                   " equals the Eq. 2 answer (" +
                   std::to_string(critical->chosen_precision) + " vs " +
                   std::to_string(eq2) + ")");
  return a;
}

ColdOutputs cold_pass(const Inputs& in, int workers, const std::string& path,
                      Result& result) {
  auto owned = std::make_unique<Context>(context_options(workers));
  const Context& ctx = *owned;
  engine::DesignStore& store = ctx.store();
  ColdOutputs out;

  // Every netlist the sweeps need, synthesized up front across the pool.
  {
    Span span("synth");
    std::vector<ComponentSpec> todo;
    for (const LibraryEntry& e : in.library) {
      for (int k = e.spec.width; k >= e.min_precision; --k) {
        ComponentSpec s = e.spec;
        s.truncated_bits = e.spec.width - k;
        todo.push_back(s);
      }
    }
    ctx.parallel_for(todo.size(), [&](std::size_t i) {
      (void)store.netlist(in.lib, todo[i]);
    });
  }
  {
    Span span("cell");
    for (const double years : {1.0, 10.0}) {
      (void)store.aged_library(in.lib, in.model, years);
    }
  }
  out.answers = characterize_and_flow(ctx, in, "sta", result);

  // Measured-stress characterization of the duty component: per precision
  // point, packed-simulation duty then aged STA under that duty.
  const int duty_floor = in.duty_spec.width - kSweepDepth;
  const ComponentCharacterizer worst(ctx, in.lib, in.model,
                                     sweep_options(duty_floor));
  const ComponentCharacterization& wc_surface =
      worst.characterize(in.duty_spec, corners());
  const std::size_t wc10 = wc_surface.scenario_index({StressMode::worst, 10.0});
  const DegradationAwareLibrary& aged10 =
      store.aged_library(in.lib, in.model, 10.0);
  for (int k = in.duty_spec.width; k >= duty_floor; --k) {
    ComponentSpec s = in.duty_spec;
    s.truncated_bits = in.duty_spec.width - k;
    const Netlist& nl = store.netlist(in.lib, s);
    std::vector<double> duty;
    {
      Span span("gatesim.packed");
      duty = measure_gate_duty(nl, in.duty_stimulus);
    }
    double measured = 0.0;
    {
      Span span("sta");
      measured = Sta(nl, {}, &ctx)
                     .run_aged(aged10, StressProfile::measured(duty))
                     .max_delay;
    }
    const PrecisionPoint& p = wc_surface.at_precision(k);
    // Measured duty ages no gate beyond full stress, and aging never speeds
    // a path up.
    result.check(measured >= p.fresh_delay - 1e-9 &&
                     measured <= p.aged_delay[wc10] + 1e-9,
                 "measured-stress delay of " + s.name() +
                     " lies between fresh and worst-case 10Y");
    out.digest = fnv_f64(out.digest, measured);
  }

  // RTL decode of the nine sequences, fresh and at the flow's truncation.
  const int mult_trunc =
      in.idct.blocks[0].component.width - out.answers.chosen[0];
  {
    Span span("rtl");
    for (std::size_t i = 0; i < in.frames.size(); ++i) {
      ExactBackend fresh_be(in.codec.width, 0, 0);
      ExactBackend approx_be(in.codec.width, mult_trunc, 0);
      const double fresh_db =
          psnr(in.frames[i], FixedPointIdct(in.codec, fresh_be).decode(in.coded[i]));
      const double approx_db =
          psnr(in.frames[i], FixedPointIdct(in.codec, approx_be).decode(in.coded[i]));
      result.check(std::isfinite(fresh_db) && std::isfinite(approx_db) &&
                       fresh_db > 20.0 && approx_db > 10.0,
                   "PSNR of " + video_trace_names()[i] + " is plausible");
      out.digest = fnv_f64(fnv_f64(out.digest, fresh_db), approx_db);
    }
  }

  // Lifetime Monte-Carlo with the guardband widened by the slack the
  // chosen multiplier precision buys.
  const ComponentCharacterizer flow_ch(ctx, in.lib, in.model,
                                       sweep_options(kFlowMinPrecision));
  const ComponentCharacterization& mult = flow_ch.characterize(
      in.idct.blocks[0].component, {flow_options().scenario});
  const double slack_ratio =
      mult.full_fresh_delay() / mult.at_precision(out.answers.chosen[0]).fresh_delay;
  {
    Span span("aging");
    LifetimeOptions lo;
    lo.dies = kLifetimeDies;
    lo.seed = in.seed;
    lo.tolerable_delay_factor = 1.06 * slack_ratio;
    const LifetimeResult life =
        simulate_lifetime(in.lifetime_model, in.phases, lo);
    result.check(life.dies == kLifetimeDies &&
                     life.drift_failures + life.hard_failures + life.censored ==
                         static_cast<std::uint64_t>(life.dies) &&
                     life.mttf_years > 0.0 &&
                     life.mttf_years <= life.horizon_years + 1e-9,
                 "lifetime Monte-Carlo accounts for every die");
    out.digest = fnv_u64(fnv_f64(out.digest, life.mttf_years), life.checksum);
  }
  {
    Span span("engine.save");
    result.check(store.save(path), "store saves to " + path);
  }
  Span span("engine.free");
  owned.reset();
  return out;
}

Answers warm_pass(const Inputs& in, int workers, const std::string& path,
                  Result& result, engine::DesignStore::Stats* stats) {
  auto owned = std::make_unique<Context>(context_options(workers));
  const Context& ctx = *owned;
  {
    Span span("engine.open");
    result.check(ctx.store().open(path), "store opens from " + path);
  }
  Answers a = characterize_and_flow(ctx, in, "engine.lookup", result);
  *stats = ctx.store().stats();
  Span span("engine.free");
  owned.reset();
  return a;
}

}  // namespace

void run_paper_flow(const Args& args, Result& result) {
  const int workers = worker_count();
  const std::string path =
      args.out_dir + "/paper_flow-seed" + std::to_string(args.seed) + ".store";
  std::remove(path.c_str());

  std::vector<double> setup;
  std::unique_ptr<Inputs> in;

  // Deterministic work of the first cold and warm pass; every later pass
  // must repeat it exactly.
  const std::vector<std::string> cold_counters = {
      "engine.store.netlist_misses", "engine.store.library_misses",
      "engine.store.surface_misses", "engine.store.delay_misses",
      "sta.aged_runs", "sta.fresh_runs", "optimize.gates_removed",
      "packedsim.evals", "packedsim.lanes_used", "aging.lifetime.dies",
      "engine.store.persist.bytes_written"};
  const std::vector<std::string> warm_counters = {
      "engine.store.persist.bytes_read", "engine.store.persist.hits",
      "engine.store.surface_hits", "engine.store.surface_misses"};

  std::vector<double> cold_s, warm_s;
  std::vector<double> traced, untraced;  // cold+warm wall per pass pair
  ColdOutputs first;
  Counters first_counts;
  double pool_use_sum = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t bytes_written = 0, bytes_read = 0;
  const double start = now_s();
  int pass = 0;
  while (pass < kMinPasses || now_s() - start < args.seconds) {
    // Traced runs alternate traced and untraced passes so the tracing
    // overhead is measured on identical work.
    const bool untraced_pass = args.trace && pass % 2 == 1;
    std::unique_ptr<Span> hold;
    if (untraced_pass) {
      hold = std::make_unique<Span>("untraced");
      layers().set_enabled(false);
    }
    const double ts = now_s();
    {
      Span span("setup");
      in = make_inputs(args.seed);
    }
    setup.push_back(now_s() - ts);
    const Counters c0 = counter_snapshot();
    const double t0 = now_s();
    ColdOutputs cold = cold_pass(*in, workers, path, result);
    const double t1 = now_s();
    const Counters c1 = counter_snapshot();
    engine::DesignStore::Stats wstats;
    const Answers warm = warm_pass(*in, workers, path, result, &wstats);
    const double t2 = now_s();
    const Counters c2 = counter_snapshot();
    if (untraced_pass) layers().set_enabled(true);
    hold.reset();

    cold_s.push_back(t1 - t0);
    warm_s.push_back(t2 - t1);
    (untraced_pass ? untraced : traced).push_back(t2 - t0);
    pool_use_sum += static_cast<double>(delta(c0, c1, "pool.busy_us")) / 1e6 /
                    (workers * (t1 - t0));

    result.check(warm.surfaces == cold.answers.surfaces,
                 "warm surfaces are bit-identical to the cold pass");
    result.check(warm.plan == cold.answers.plan && warm.chosen == cold.answers.chosen,
                 "warm flow answer is bit-identical to the cold pass");
    Counters counts;
    for (const std::string& n : cold_counters) counts["cold." + n] = delta(c0, c1, n);
    for (const std::string& n : warm_counters) counts["warm." + n] = delta(c1, c2, n);
    if (pass == 0) {
      first = cold;
      first_counts = counts;
      const std::uint64_t hits = wstats.hits();
      hit_ratio = static_cast<double>(hits) /
                  static_cast<double>(std::max<std::uint64_t>(hits + wstats.misses(), 1));
      bytes_written = counts["cold.engine.store.persist.bytes_written"];
      bytes_read = counts["warm.engine.store.persist.bytes_read"];
    } else {
      result.check(cold.digest == first.digest &&
                       cold.answers.surfaces == first.answers.surfaces,
                   "every cold pass gives the first pass's outputs");
      result.check(counts == first_counts,
                   "every pass repeats the first pass's work counters");
    }
    ++pass;
  }
  std::remove(path.c_str());

  result.counters = first_counts;
  result.digest = first.digest;
  for (const std::uint64_t s : first.answers.surfaces) {
    result.digest = fnv_u64(result.digest, s);
  }
  result.digest = fnv_u64(result.digest, first.answers.plan);

  if (!args.trace) {
    result.metrics["setup_s"] = median(setup);
    result.metrics["cold_s"] = median(cold_s);
    result.metrics["warm_s"] = median(warm_s);
    return;
  }
  // Per-layer metrics per traced pass pair.
  const double n = static_cast<double>(traced.size());
  const Layers& l = layers();
  auto& m = result.metrics;
  m["synth.busy_s"] = l.self_of("synth") / n;
  m["cell.busy_s"] = l.self_of("cell") / n;
  m["sta.busy_s"] = l.self_of("sta") / n;
  m["core.busy_s"] = l.self_of("core") / n;
  m["gatesim.packed_busy_s"] = l.self_of("gatesim.packed") / n;
  m["rtl.busy_s"] = l.self_of("rtl") / n;
  m["aging.busy_s"] = l.self_of("aging") / n;
  m["engine.save_s"] = l.self_of("engine.save") / n;
  m["engine.lookup_s"] = l.self_of("engine.lookup") / n;
  m["engine.open_s"] = l.self_of("engine.open") / n;
  const Counters& c = first_counts;
  m["synth.netlists"] = static_cast<double>(c.at("cold.engine.store.netlist_misses"));
  m["synth.gates_removed"] = static_cast<double>(c.at("cold.optimize.gates_removed"));
  m["cell.aged_libraries"] = static_cast<double>(c.at("cold.engine.store.library_misses"));
  m["sta.aged_runs"] = static_cast<double>(c.at("cold.sta.aged_runs"));
  m["sta.fresh_runs"] = static_cast<double>(c.at("cold.sta.fresh_runs"));
  const double evals = static_cast<double>(c.at("cold.packedsim.evals"));
  m["gatesim.packed_lane_use"] =
      evals > 0 ? static_cast<double>(c.at("cold.packedsim.lanes_used")) /
                      (evals * aapx::simd::backend_lanes(aapx::simd::simd_dispatch()))
                : 0.0;
  m["rtl.pixels"] = static_cast<double>(2 * in->frames.size() * kFrameSize * kFrameSize);
  m["aging.dies"] = static_cast<double>(c.at("cold.aging.lifetime.dies"));
  m["engine.bytes_written"] = static_cast<double>(bytes_written);
  m["engine.bytes_read"] = static_cast<double>(bytes_read);
  m["engine.hit_ratio"] = hit_ratio;
  m["util.pool_use"] = pool_use_sum / static_cast<double>(pass);
  m["obs.trace_overhead"] =
      untraced.empty() ? 0.0 : median(traced) / median(untraced) - 1.0;
}

}  // namespace perfbench
