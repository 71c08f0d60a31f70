// gate_timing — event-driven timed gate-level simulation, the cost the
// paper's RTL decoding avoids.
//
// One pass runs a fixed mix: (1) Fig. 1 error rates of the 32-bit adder and
// multiplier over seeded stimulus at the four corners after fresh-clock
// binning, every settled output cross-checked against the packed functional
// simulator; (2) recorded IDCT operands through TimedNetlistBackend at the
// fresh and the 10Y clock; (3) an open- and a closed-loop ClosedLoopRuntime
// campaign on the faulted plant of the closed-loop ablation. Set-up makes
// the inputs, synthesizes the two components on a fresh Context and builds
// the runtime's precision schedule. The cold pass then runs the mix, which
// also builds the aged and faulted cell libraries and the runtime's other
// netlists; the warm pass repeats it on the same Context, where those are
// store hits and only STA gate delays and simulation remain.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "gatesim/packedsim.hpp"
#include "gatesim/timedsim.hpp"
#include "image/synthetic.hpp"
#include "obs/metrics.hpp"
#include "rtl/backend.hpp"
#include "rtl/codec.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

using namespace aapx;

namespace perfbench {
namespace {

constexpr std::size_t kAdderVectors = 600;
constexpr std::size_t kMultVectors = 24;
constexpr std::size_t kChainOps = 24;
constexpr int kCampaignEpochs = 16;
constexpr int kMinPasses = 3;

std::vector<AgingScenario> corners() {
  return {{StressMode::balanced, 1.0},
          {StressMode::balanced, 10.0},
          {StressMode::worst, 1.0},
          {StressMode::worst, 10.0}};
}

struct Inputs {
  CellLibrary lib;
  AgingModel model;
  CodecConfig codec;
  ComponentSpec adder{ComponentKind::adder, 32, 0, AdderArch::cla4,
                      MultArch::array};
  ComponentSpec mult{ComponentKind::multiplier, 32, 0, AdderArch::cla4,
                     MultArch::array};
  StimulusSet adder_stim;
  StimulusSet mult_stim;
  std::vector<std::pair<std::int64_t, std::int64_t>> chain_mults;
  std::vector<std::pair<std::int64_t, std::int64_t>> chain_adds;
  RuntimeOptions runtime;
  FaultScenario fault;
  CampaignOptions campaign;
};

/// Seeded permutation of `v`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// A fixed sample of N(0, sigma) operand pairs applied in seeded order.
/// Timed-simulation work follows the operands, so every seed simulates the
/// same vectors' switching while the transitions between them differ.
StimulusSet pair_stimulus(std::size_t count, double sigma, Rng& rng) {
  StimulusSet s = make_normal_stimulus(32, count, 0x5eed, sigma);
  shuffle(s.vectors, rng);
  return s;
}

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 5);
  in->lib = make_nangate45_like();
  in->codec.frac_bits = 7;
  in->adder_stim = pair_stimulus(kAdderVectors, 64.0, rng);
  in->mult_stim = pair_stimulus(kMultVectors, 8192.0, rng);

  // IDCT operands recorded from an exact decode of a fixed frame; the
  // chain replays a fixed, evenly spaced subset of them in seeded order.
  const Image frame = make_video_trace_frame("foreman", 16, 16);
  ExactBackend exact(in->codec.width, 0, 0);
  RecordingBackend recorder(exact);
  (void)FixedPointIdct(in->codec, recorder)
      .decode(encode_and_quantize(frame, in->codec));
  const auto pick = [&rng](const auto& ops, std::size_t n) {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    const std::size_t stride = std::max<std::size_t>(ops.size() / n, 1);
    for (std::size_t i = 0; i < n && i * stride < ops.size(); ++i) {
      out.push_back(ops[i * stride]);
    }
    shuffle(out, rng);
    return out;
  };
  in->chain_mults = pick(recorder.mult_ops(), kChainOps);
  in->chain_adds = pick(recorder.add_ops(), kChainOps * 8);

  in->runtime.component = {ComponentKind::adder, 32, 0, AdderArch::ripple,
                           MultArch::array};
  in->runtime.min_precision = 22;
  in->fault.aging_acceleration = 1.5;
  in->fault.sensor_gain = 0.6;
  in->fault.sensor_noise_sigma_years = 0.2;
  in->fault.temp_step_kelvin = 20.0;
  in->fault.temp_step_from_years = 5.0;
  in->fault.seed = seed;
  in->campaign.epochs = kCampaignEpochs;
  in->campaign.vectors_per_epoch = 96;
  in->campaign.verify_vectors = 48;
  in->campaign.stimulus_seed = seed + 7;
  in->campaign.monitor.window = in->campaign.vectors_per_epoch;
  in->campaign.monitor.canary_margin = 0.97;
  in->campaign.monitor.canary_trip = 2;
  return in;
}

Sta::GateDelays delays_for(const Context& ctx, const Inputs& in,
                           const Netlist& nl, const AgingScenario& s) {
  Span span("sta.delays");
  const Sta sta(nl, {}, &ctx);
  if (s.is_fresh()) return sta.gate_delays(nullptr, nullptr);
  const DegradationAwareLibrary& aged =
      ctx.store().aged_library(in.lib, in.model, s.years);
  const StressProfile stress = StressProfile::uniform(s.mode, nl.num_gates());
  return sta.gate_delays(&aged, &stress);
}

struct Outputs {
  std::uint64_t digest = kFnvBasis;
  std::uint64_t campaign_steps = 0;  ///< timed steps inside the campaigns
  std::uint64_t campaign_vectors = 0;
  std::uint64_t control_events = 0;
};

/// Fig. 1 on one component: bin the fresh clock, then count sampled errors
/// per corner. Every settled output must equal the packed simulator's.
void fig1_component(const Context& ctx, const Inputs& in,
                    const ComponentSpec& spec, const StimulusSet& stim,
                    Result& result, Outputs& out) {
  const Netlist* nl = nullptr;
  {
    Span span("synth");
    nl = &ctx.store().netlist(in.lib, spec);
  }
  const std::vector<NetId>& y = nl->output_bus("y");

  // Functional reference, one lane per vector.
  std::vector<std::uint64_t> expect(stim.size());
  {
    Span span("gatesim.packed");
    const std::unique_ptr<WideSim> packed = make_wide_sim(*nl);
    const std::size_t lanes = static_cast<std::size_t>(packed->lanes());
    for (std::size_t base = 0; base < stim.size(); base += lanes) {
      const std::size_t n = std::min(lanes, stim.size() - base);
      for (std::size_t b = 0; b < stim.buses.size(); ++b) {
        std::vector<std::uint64_t> vals(n);
        for (std::size_t i = 0; i < n; ++i) vals[i] = stim.vectors[base + i][b];
        packed->set_bus(stim.buses[b], vals);
      }
      packed->eval();
      for (std::size_t i = 0; i < n; ++i) {
        expect[base + i] = packed->word_value(y, static_cast<int>(i));
      }
    }
  }

  // One timed pass over the stimulus from reset; returns sampled errors
  // and records the largest output settle time.
  const auto timed_pass = [&](Sta::GateDelays delays, double t_clock,
                              double* max_settle) {
    Span span("gatesim.timed");
    TimedSim sim(*nl, std::move(delays), DelayModel::inertial);
    std::vector<std::vector<NetId>> pis;
    for (const std::string& bus : stim.buses) {
      pis.push_back(sim.resolve_stage(nl->input_bus(bus)));
    }
    std::uint64_t errors = 0, mismatches = 0;
    for (std::size_t v = 0; v < stim.size(); ++v) {
      for (std::size_t b = 0; b < pis.size(); ++b) {
        sim.stage_resolved(pis[b], stim.vectors[v][b]);
      }
      if (sim.step_staged(t_clock)) ++errors;
      if (sim.settled_word(y) != expect[v]) ++mismatches;
      if (max_settle != nullptr) {
        *max_settle = std::max(*max_settle, sim.last_output_settle_time());
      }
    }
    result.ops(stim.size(), mismatches,
               "settled " + spec.name() + " outputs equal the packed simulator");
    return errors;
  };

  const Sta::GateDelays fresh = delays_for(ctx, in, *nl, AgingScenario::fresh());
  double t_clock = 0.0;
  (void)timed_pass(fresh, 1e12, &t_clock);
  const std::uint64_t fresh_errors = timed_pass(fresh, t_clock, nullptr);
  result.check(fresh_errors == 0,
               spec.name() + " samples no error at its binned fresh clock");
  out.digest = fnv_f64(out.digest, t_clock);
  for (const AgingScenario& s : corners()) {
    const std::uint64_t errors =
        timed_pass(delays_for(ctx, in, *nl, s), t_clock, nullptr);
    out.digest = fnv_u64(out.digest, errors);
  }
}

/// Recorded IDCT operands through the gate-timed datapath at the fresh and
/// the 10Y worst-case clock; at the fresh STA clock every result is exact.
void idct_chain(const Context& ctx, const Inputs& in, Result& result,
                Outputs& out) {
  const Netlist* mult = nullptr;
  const Netlist* adder = nullptr;
  {
    Span span("synth");
    mult = &ctx.store().netlist(in.lib, in.mult);
    adder = &ctx.store().netlist(in.lib, in.adder);
  }
  double t_clock = 0.0;
  {
    Span span("sta");
    t_clock = std::max(Sta(*mult, {}, &ctx).run_fresh().max_delay,
                       Sta(*adder, {}, &ctx).run_fresh().max_delay);
  }
  ExactBackend exact(in.codec.width, 0, 0);
  for (const AgingScenario& s :
       {AgingScenario::fresh(), AgingScenario{StressMode::worst, 10.0}}) {
    Sta::GateDelays md = delays_for(ctx, in, *mult, s);
    Sta::GateDelays ad = delays_for(ctx, in, *adder, s);
    Span span("rtl.timed");
    TimedNetlistBackend be(*mult, std::move(md), *adder, std::move(ad),
                           in.codec.width, t_clock);
    std::uint64_t wrong = 0;
    for (const auto& [a, b] : in.chain_mults) {
      const std::int64_t got = be.multiply(a, b);
      wrong += got != exact.multiply(a, b);
      out.digest = fnv_u64(out.digest, static_cast<std::uint64_t>(got));
    }
    for (const auto& [a, b] : in.chain_adds) {
      const std::int64_t got = be.add(a, b);
      wrong += got != exact.add(a, b);
      out.digest = fnv_u64(out.digest, static_cast<std::uint64_t>(got));
    }
    if (s.is_fresh()) {
      result.ops(in.chain_mults.size() + in.chain_adds.size(), wrong,
                 "gate-timed IDCT operations at the fresh STA clock are exact");
    }
    out.digest = fnv_u64(out.digest, wrong);
  }
}

/// A pass's starting point: the inputs, a Context holding the synthesized
/// component netlists, and the closed-loop runtime with its schedule.
struct Prepared {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Context> ctx;
  std::unique_ptr<ClosedLoopRuntime> runtime;
  std::unique_ptr<FaultInjector> faults;
};

Prepared prepare(std::uint64_t seed, int workers) {
  Span setup("setup");
  Prepared p;
  p.in = make_inputs(seed);
  Context::Options o;
  o.threads = workers;
  o.metrics = &obs::metrics();
  p.ctx = std::make_unique<Context>(o);
  {
    Span span("synth");
    (void)p.ctx->store().netlist(p.in->lib, p.in->adder);
    (void)p.ctx->store().netlist(p.in->lib, p.in->mult);
  }
  Span span("core");  // the runtime's precision schedule
  p.runtime = std::make_unique<ClosedLoopRuntime>(*p.ctx, p.in->lib,
                                                  p.in->model, p.in->runtime);
  p.faults = std::make_unique<FaultInjector>(*p.ctx, p.in->lib, p.in->model,
                                             p.in->fault);
  return p;
}

/// Frees a pass's state, users before what they use.
void release(Prepared& p) {
  Span span("engine.free");
  p.faults.reset();
  p.runtime.reset();
  p.ctx.reset();
  p.in.reset();
}

void campaigns(const Prepared& p, Result& result, Outputs& out) {
  const Context& ctx = *p.ctx;
  const Inputs& in = *p.in;
  CampaignOptions open_opt = in.campaign;
  open_opt.closed_loop = false;
  CampaignResult results[2];
  const Counters c0 = counter_snapshot();
  {
    Span span("runtime");
    ctx.parallel_for(2, [&](std::size_t i) {
      results[i] = p.runtime->run(*p.faults, i == 0 ? open_opt : in.campaign);
    });
  }
  const Counters c1 = counter_snapshot();
  const CampaignResult& closed = results[1];
  result.check(closed.converged_clean(),
               "closed-loop campaign converges clean");
  result.ops(results[0].total_vectors + closed.total_vectors, 0,
             "campaign vectors");
  out.campaign_steps += delta(c0, c1, "timedsim.steps");
  out.campaign_vectors += results[0].total_vectors + closed.total_vectors;
  out.control_events += closed.events.size();
  for (const CampaignResult& r : results) {
    out.digest = fnv_u64(out.digest, r.total_errors);
    out.digest = fnv_u64(out.digest, static_cast<std::uint64_t>(r.final_precision));
    for (const EpochReport& e : r.epochs) {
      out.digest = fnv_u64(out.digest, e.errors);
      out.digest = fnv_u64(out.digest, static_cast<std::uint64_t>(e.precision));
    }
  }
}

Outputs run_mix(const Prepared& p, Result& result) {
  Outputs out;
  const Inputs& in = *p.in;
  fig1_component(*p.ctx, in, in.adder, in.adder_stim, result, out);
  fig1_component(*p.ctx, in, in.mult, in.mult_stim, result, out);
  idct_chain(*p.ctx, in, result, out);
  campaigns(p, result, out);
  return out;
}

}  // namespace

void run_gate_timing(const Args& args, Result& result) {
  const int workers = worker_count();
  const std::vector<std::string> counted = {
      "timedsim.events", "timedsim.steps", "sta.aged_runs", "sta.fresh_runs",
      "packedsim.evals", "engine.store.netlist_misses",
      "engine.store.library_misses"};
  std::vector<double> setup, cold_s, warm_s, traced, untraced;
  std::vector<double> ops_per_s;
  Counters first;
  std::uint64_t first_digest = 0;
  Outputs first_out;
  const double start = now_s();
  int pass = 0;
  while (pass < kMinPasses || now_s() - start < args.seconds) {
    const bool untraced_pass = args.trace && pass % 2 == 1;
    std::unique_ptr<Span> hold;
    if (untraced_pass) {
      hold = std::make_unique<Span>("untraced");
      layers().set_enabled(false);
    }
    const double ts = now_s();
    Prepared prep = prepare(args.seed, workers);
    const Counters c0 = counter_snapshot();
    const double t0 = now_s();
    const Outputs cold = run_mix(prep, result);
    const double t1 = now_s();
    const Counters c1 = counter_snapshot();
    const Outputs warm = run_mix(prep, result);
    const double t2 = now_s();
    const Counters c2 = counter_snapshot();
    release(prep);
    if (untraced_pass) layers().set_enabled(true);
    hold.reset();

    setup.push_back(t0 - ts);
    cold_s.push_back(t1 - t0);
    warm_s.push_back(t2 - t1);
    (untraced_pass ? untraced : traced).push_back(t2 - t0);
    ops_per_s.push_back(static_cast<double>(delta(c1, c2, "timedsim.steps")) /
                        (t2 - t1));
    result.check(warm.digest == cold.digest,
                 "warm pass outputs equal the cold pass");
    Counters counts;
    for (const std::string& n : counted) {
      counts["cold." + n] = delta(c0, c1, n);
      counts["warm." + n] = delta(c1, c2, n);
    }
    counts["campaign.steps"] = cold.campaign_steps;
    counts["campaign.vectors"] = cold.campaign_vectors;
    counts["campaign.control_events"] = cold.control_events;
    if (pass == 0) {
      first = counts;
      first_digest = cold.digest;
      first_out = cold;
    } else {
      result.check(cold.digest == first_digest,
                   "every pass gives the first pass's outputs");
      result.check(counts == first,
                   "every pass repeats the first pass's work counters");
    }
    ++pass;
  }
  result.counters = first;
  result.digest = first_digest;

  if (!args.trace) {
    result.metrics["setup_s"] = median(setup);
    result.metrics["cold_s"] = median(cold_s);
    result.metrics["warm_s"] = median(warm_s);
    return;
  }
  const double n = static_cast<double>(traced.size());
  const Layers& l = layers();
  auto& m = result.metrics;
  m["gatesim.timed_busy_s"] = l.self_of("gatesim.timed") / n;
  m["gatesim.packed_busy_s"] = l.self_of("gatesim.packed") / n;
  m["sta.delays_s"] = l.self_of("sta.delays") / n;
  m["sta.busy_s"] = l.self_of("sta") / n;
  m["synth.busy_s"] = l.self_of("synth") / n;
  m["core.busy_s"] = l.self_of("core") / n;
  m["rtl.timed_busy_s"] = l.self_of("rtl.timed") / n;
  m["runtime.busy_s"] = l.self_of("runtime") / n;
  const double steps = static_cast<double>(first.at("warm.timedsim.steps"));
  m["gatesim.events"] = static_cast<double>(first.at("warm.timedsim.events"));
  m["gatesim.steps"] = steps;
  m["gatesim.events_per_op"] = m["gatesim.events"] / std::max(steps, 1.0);
  m["gatesim.max_queue_depth"] = global_gauge_max("timedsim.max_queue_depth");
  m["gatesim.ops_per_s"] = median(ops_per_s);
  m["sta.aged_runs"] = static_cast<double>(first.at("cold.sta.aged_runs"));
  m["sta.fresh_runs"] = static_cast<double>(first.at("cold.sta.fresh_runs"));
  m["synth.netlists"] = static_cast<double>(first.at("cold.engine.store.netlist_misses"));
  m["cell.aged_libraries"] = static_cast<double>(first.at("cold.engine.store.library_misses"));
  m["runtime.control_events"] = static_cast<double>(first_out.control_events);
  m["runtime.verify_vectors"] =
      static_cast<double>(first_out.campaign_steps - first_out.campaign_vectors);
  m["obs.trace_overhead"] =
      untraced.empty() ? 0.0 : median(traced) / median(untraced) - 1.0;
}

}  // namespace perfbench
