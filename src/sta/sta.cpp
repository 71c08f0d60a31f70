#include "sta/sta.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "engine/context.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace aapx {
namespace {

constexpr double kNeverArrives = -std::numeric_limits<double>::infinity();

/// Back-pointer for critical-path extraction: which input pin and input
/// transition produced a net's worst rise/fall arrival.
struct Origin {
  GateId gate = kInvalidGate;
  int pin = -1;
  bool input_rising = false;
};

}  // namespace

double StaResult::net_arrival(NetId net) const {
  const double r = arrival_rise[net];
  const double f = arrival_fall[net];
  const double worst = std::max(r, f);
  return worst == kNeverArrives ? 0.0 : worst;
}

Sta::Sta(const Netlist& nl, StaOptions options, const Context* ctx)
    : nl_(&nl), options_(options) {
  obs::MetricsRegistry& registry =
      ctx != nullptr ? ctx->metrics() : obs::metrics();
  fresh_runs_ = &registry.counter("sta.fresh_runs");
  aged_runs_ = &registry.counter("sta.aged_runs");
  runlog_ = ctx != nullptr ? &ctx->runlog() : &obs::RunLog::instance();
  metrics_ = &registry;

  fresh_.rise.reserve(nl.num_gates());
  fresh_.fall.reserve(nl.num_gates());
  const double slew = options_.primary_input_slew;
  std::vector<char> is_po(nl.num_nets(), 0);
  for (const NetId po : nl.outputs()) is_po[po] = 1;
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(static_cast<GateId>(g));
    const Cell& cell = nl.lib().cell(gate.cell);
    // Primary outputs additionally drive the next pipeline stage's registers.
    double load = nl.net_load(gate.fanout);
    if (is_po[gate.fanout]) load += options_.primary_output_load;
    double rise = 0.0;
    double fall = 0.0;
    for (const TimingArc& arc : cell.arcs) {
      rise = std::max(rise, arc.rise_delay.lookup(slew, load));
      fall = std::max(fall, arc.fall_delay.lookup(slew, load));
    }
    fresh_.rise.push_back(rise);
    fresh_.fall.push_back(fall);
  }
}

StaResult Sta::run_fresh() const { return run(nullptr, nullptr); }

StaResult Sta::run_aged(const DegradationAwareLibrary& aged,
                        const StressProfile& stress) const {
  if (stress.gate_count() != nl_->num_gates()) {
    throw std::invalid_argument("Sta::run_aged: stress profile size mismatch");
  }
  return run(&aged, &stress);
}

Sta::GateDelays Sta::gate_delays(const DegradationAwareLibrary* aged,
                                 const StressProfile* stress) const {
  if (aged == nullptr || stress == nullptr) return fresh_;
  return aged_delays(*aged, *stress);
}

Sta::GateDelays Sta::aged_delays(const DegradationAwareLibrary& aged,
                                 const StressProfile& stress) const {
  const Netlist& nl = *nl_;
  const std::size_t gates = fresh_.rise.size();
  GateDelays gd;
  gd.rise.reserve(gates);
  gd.fall.reserve(gates);
  // HCI drift is activity-driven, not duty-driven, so it cannot live in the
  // 11x11 stress-factor grids; it multiplies the fall factor per gate here.
  // The counter is resolved only for HCI-enabled models so that BTI-only
  // runs register no new metrics keys.
  const bool hci = aged.model().has_hci();
  for (std::size_t g = 0; g < gates; ++g) {
    const auto gid = static_cast<GateId>(g);
    const CellId cell = nl.gate(gid).cell;
    const StressPair sp = stress.gate(gid);
    const double rise_factor = aged.rise_factor(cell, sp);
    double fall_factor = aged.fall_factor(cell, sp);
    if (hci) {
      // HCI wears the nMOS pull-down network, so only output falls slow
      // down; the factor composes multiplicatively with the BTI grid's.
      const double dvth =
          aged.model().hci_delta_vth(stress.gate_activity(g), aged.years()) *
          nl.lib().cell(cell).aging_sensitivity;
      fall_factor *= aged.model().delay_factor_from_dvth(dvth);
    }
    gd.rise.push_back(fresh_.rise[g] * rise_factor);
    gd.fall.push_back(fresh_.fall[g] * fall_factor);
  }
  if (hci) {
    metrics_->counter("aging.mechanism.hci.drift_evals").add(gates);
  }
  return gd;
}

StaResult Sta::run_truncated(const DegradationAwareLibrary* aged,
                             const StressProfile* stress,
                             const std::vector<NetId>& truncated_pis) const {
  if (aged != nullptr && stress != nullptr &&
      stress->gate_count() != nl_->num_gates()) {
    throw std::invalid_argument(
        "Sta::run_truncated: stress profile size mismatch");
  }
  std::vector<char> blocked(nl_->num_nets(), 0);
  for (const NetId pi : truncated_pis) {
    if (nl_->pi_index(pi) == kInvalidNet) {
      throw std::invalid_argument(
          "Sta::run_truncated: net is not a primary input");
    }
    blocked[pi] = 1;
  }
  return run_impl(aged, stress, &blocked);
}

StaResult Sta::run(const DegradationAwareLibrary* aged,
                   const StressProfile* stress) const {
  obs::Span span("sta.run");
  (aged != nullptr ? aged_runs_ : fresh_runs_)->add();
  StaResult res = run_impl(aged, stress, nullptr);

  // Serial-spine queries only: runs launched from parallel_for workers stay
  // out of the log so its byte content is independent of the thread count
  // (the serial fallback marks the region too, so 1 thread matches N).
  obs::RunLog& log = *runlog_;
  if (log.enabled() && !in_parallel_region()) {
    obs::JsonWriter w;
    w.field("kind", aged != nullptr ? "aged" : "fresh")
        .field("gates", static_cast<std::uint64_t>(nl_->num_gates()))
        .field("max_delay_ps", res.max_delay);
    log.emit("sta_query", w);
  }
  return res;
}

StaResult Sta::run_impl(const DegradationAwareLibrary* aged,
                        const StressProfile* stress,
                        const std::vector<char>* blocked) const {
  const Netlist& nl = *nl_;
  const std::size_t nets = nl.num_nets();

  // STA and the event-driven simulator share one delay model (per gate and
  // transition direction, at a nominal boundary slew). This makes the STA
  // max delay a strict upper bound on any simulated settling time, which is
  // the property behind paper Eq. 1: tCP <= tclock implies no timing errors.
  GateDelays aged_gd;
  if (aged != nullptr && stress != nullptr) {
    aged_gd = aged_delays(*aged, *stress);
  }
  const GateDelays& gd = aged_gd.rise.empty() ? fresh_ : aged_gd;

  StaResult res;
  res.arrival_rise.assign(nets, kNeverArrives);
  res.arrival_fall.assign(nets, kNeverArrives);
  std::vector<Origin> origin_rise(nets);
  std::vector<Origin> origin_fall(nets);

  for (const NetId pi : nl.inputs()) {
    if (blocked != nullptr && (*blocked)[pi] != 0) continue;  // never arrives
    res.arrival_rise[pi] = 0.0;
    res.arrival_fall[pi] = 0.0;
  }

  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    const int pins = nl.gate_num_inputs(gid);
    for (int p = 0; p < pins; ++p) {
      const NetId in = g.fanin[static_cast<std::size_t>(p)];
      // Non-unate treatment: either input transition may cause either output
      // transition; take the worst combination per output edge.
      for (const bool input_rising : {false, true}) {
        const double in_arr =
            input_rising ? res.arrival_rise[in] : res.arrival_fall[in];
        if (in_arr == kNeverArrives) continue;
        const double a_rise = in_arr + gd.rise[gid];
        if (a_rise > res.arrival_rise[g.fanout]) {
          res.arrival_rise[g.fanout] = a_rise;
          origin_rise[g.fanout] = {gid, p, input_rising};
        }
        const double a_fall = in_arr + gd.fall[gid];
        if (a_fall > res.arrival_fall[g.fanout]) {
          res.arrival_fall[g.fanout] = a_fall;
          origin_fall[g.fanout] = {gid, p, input_rising};
        }
      }
    }
  }

  res.output_delay.reserve(nl.outputs().size());
  res.max_delay = 0.0;
  res.critical_output = 0;
  bool critical_rising = true;
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    const NetId po = nl.outputs()[i];
    const double r = res.arrival_rise[po];
    const double f = res.arrival_fall[po];
    const double worst = std::max({r, f, 0.0});
    res.output_delay.push_back(worst);
    if (worst > res.max_delay) {
      res.max_delay = worst;
      res.critical_output = i;
      critical_rising = r >= f;
    }
  }

  // Critical-path walk-back from the worst output.
  if (res.max_delay > 0.0 && !nl.outputs().empty()) {
    NetId net = nl.outputs()[res.critical_output];
    bool rising = critical_rising;
    while (true) {
      const Origin& o = rising ? origin_rise[net] : origin_fall[net];
      if (o.gate == kInvalidGate) break;
      const double arrival = rising ? res.arrival_rise[net] : res.arrival_fall[net];
      res.critical_path.push_back({o.gate, o.pin, rising, arrival});
      net = nl.gate(o.gate).fanin[static_cast<std::size_t>(o.pin)];
      rising = o.input_rising;
    }
    std::reverse(res.critical_path.begin(), res.critical_path.end());
  }
  return res;
}

IncrementalSta::IncrementalSta(const Netlist& nl, StaOptions options,
                               const Context* ctx)
    : nl_(&nl), sta_(nl, options, ctx) {
  obs::MetricsRegistry& registry =
      ctx != nullptr ? ctx->metrics() : obs::metrics();
  hits_ = &registry.counter("engine.sta.incremental.hits");
  dirty_gates_ = &registry.counter("engine.sta.incremental.dirty_gates");
  full_fallbacks_ = &registry.counter("engine.sta.incremental.full_fallbacks");
  mask_words_ = (nl.inputs().size() + 63) / 64;
  blocked_.assign(mask_words_, 0);
}

double IncrementalSta::max_delay(const DegradationAwareLibrary* aged,
                                 const StressProfile* stress,
                                 const std::vector<NetId>& truncated_pis) {
  if (aged != nullptr && stress != nullptr &&
      stress->gate_count() != nl_->num_gates()) {
    throw std::invalid_argument(
        "IncrementalSta: stress profile size mismatch");
  }
  std::vector<std::uint64_t> req(mask_words_, 0);
  for (const NetId pi : truncated_pis) {
    const NetId idx = nl_->pi_index(pi);
    if (idx == kInvalidNet) {
      throw std::invalid_argument(
          "IncrementalSta: net is not a primary input");
    }
    req[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }

  // Delay identity: equal (aged, stress) inputs yield bit-identical delay
  // vectors, so an exact compare detects a scenario switch without the
  // caller having to thread a scenario key through.
  Sta::GateDelays gd = sta_.gate_delays(aged, stress);
  const bool same_delays =
      valid_ && gd.rise == gd_.rise && gd.fall == gd_.fall;
  bool superset = same_delays;
  bool unchanged = same_delays;
  for (std::size_t w = 0; superset && w < mask_words_; ++w) {
    if ((blocked_[w] & ~req[w]) != 0) superset = false;
    if (req[w] != blocked_[w]) unchanged = false;
  }

  last_dirty_gates_ = 0;
  if (!superset) {
    full_fallbacks_->add();
    gd_ = std::move(gd);
    blocked_ = req;
    full_propagate();
    valid_ = true;
  } else if (unchanged) {
    hits_->add();  // served entirely from the cached arrivals
  } else {
    hits_->add();
    std::vector<std::uint64_t> dirty(mask_words_);
    for (std::size_t w = 0; w < mask_words_; ++w) {
      dirty[w] = req[w] & ~blocked_[w];
    }
    blocked_ = req;
    repropagate(dirty);
    dirty_gates_->add(last_dirty_gates_);
  }
  return max_delay_;
}

void IncrementalSta::build_masks() {
  const Netlist& nl = *nl_;
  // Per-net PI-dependency masks flow forward over the topo order; only the
  // per-gate masks are kept (the query loop tests gates, not nets).
  std::vector<std::uint64_t> net_mask(nl.num_nets() * mask_words_, 0);
  const std::vector<NetId>& pis = nl.inputs();
  for (std::size_t p = 0; p < pis.size(); ++p) {
    net_mask[pis[p] * mask_words_ + (p >> 6)] |= std::uint64_t{1} << (p & 63);
  }
  depends_.assign(nl.num_gates() * mask_words_, 0);
  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    std::uint64_t* dep = &depends_[gid * mask_words_];
    const int pins = nl.gate_num_inputs(gid);
    for (int p = 0; p < pins; ++p) {
      const std::uint64_t* in =
          &net_mask[g.fanin[static_cast<std::size_t>(p)] * mask_words_];
      for (std::size_t w = 0; w < mask_words_; ++w) dep[w] |= in[w];
    }
    std::uint64_t* out = &net_mask[g.fanout * mask_words_];
    for (std::size_t w = 0; w < mask_words_; ++w) out[w] = dep[w];
  }
  masks_built_ = true;
}

void IncrementalSta::recompute_gate(GateId gid) {
  // Identical arithmetic and pin order to Sta::run_impl — a recomputed gate
  // whose fanin arrivals are bit-identical produces bit-identical outputs.
  const Netlist& nl = *nl_;
  const Gate& g = nl.gate(gid);
  double rise = kNeverArrives;
  double fall = kNeverArrives;
  const int pins = nl.gate_num_inputs(gid);
  for (int p = 0; p < pins; ++p) {
    const NetId in = g.fanin[static_cast<std::size_t>(p)];
    for (const bool input_rising : {false, true}) {
      const double in_arr =
          input_rising ? arrival_rise_[in] : arrival_fall_[in];
      if (in_arr == kNeverArrives) continue;
      rise = std::max(rise, in_arr + gd_.rise[gid]);
      fall = std::max(fall, in_arr + gd_.fall[gid]);
    }
  }
  arrival_rise_[g.fanout] = rise;
  arrival_fall_[g.fanout] = fall;
}

void IncrementalSta::full_propagate() {
  const Netlist& nl = *nl_;
  arrival_rise_.assign(nl.num_nets(), kNeverArrives);
  arrival_fall_.assign(nl.num_nets(), kNeverArrives);
  const std::vector<NetId>& pis = nl.inputs();
  for (std::size_t p = 0; p < pis.size(); ++p) {
    if ((blocked_[p >> 6] >> (p & 63)) & 1) continue;  // never arrives
    arrival_rise_[pis[p]] = 0.0;
    arrival_fall_[pis[p]] = 0.0;
  }
  for (const GateId gid : nl.topo_order()) recompute_gate(gid);
  reduce_outputs();
}

void IncrementalSta::repropagate(const std::vector<std::uint64_t>& dirty) {
  if (!masks_built_) build_masks();
  const Netlist& nl = *nl_;
  const std::vector<NetId>& pis = nl.inputs();
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t bits = dirty[w];
    while (bits != 0) {
      const std::size_t p = (w << 6) + static_cast<std::size_t>(
                                           std::countr_zero(bits));
      bits &= bits - 1;
      arrival_rise_[pis[p]] = kNeverArrives;
      arrival_fall_[pis[p]] = kNeverArrives;
    }
  }
  // Dirty-cone invariant: a gate outside the union of the newly-truncated
  // PIs' cones has bit-identical fanin arrivals, so only cone members are
  // recomputed — in topo order, so dirty fanins settle before their readers.
  for (const GateId gid : nl.topo_order()) {
    const std::uint64_t* dep = &depends_[gid * mask_words_];
    bool in_cone = false;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      if ((dep[w] & dirty[w]) != 0) {
        in_cone = true;
        break;
      }
    }
    if (!in_cone) continue;
    ++last_dirty_gates_;
    recompute_gate(gid);
  }
  reduce_outputs();
}

void IncrementalSta::reduce_outputs() {
  max_delay_ = 0.0;
  for (const NetId po : nl_->outputs()) {
    max_delay_ = std::max(
        {max_delay_, arrival_rise_[po], arrival_fall_[po]});
  }
}

}  // namespace aapx
