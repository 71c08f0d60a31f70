// Static timing analysis with optional aging awareness.
//
// Arrival times and slews propagate in topological order through the NLDM
// tables, separately for rising and falling output transitions (arcs are
// treated as non-unate, the conservative convention for max-delay analysis).
// The aged variant multiplies each arc delay/slew by the degradation-aware
// library's factor for the gate's stress pair — the paper's "aging-aware STA"
// (Fig. 3b / Fig. 6).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "aging/stress.hpp"
#include "cell/degradation.hpp"
#include "netlist/netlist.hpp"

namespace aapx::obs {
class Counter;
class MetricsRegistry;
class RunLog;
}  // namespace aapx::obs

namespace aapx {

class Context;

struct StaOptions {
  double primary_input_slew = 20.0;  ///< ps, driven by boundary registers
  double primary_output_load = 4.0;  ///< fF, next-stage register D pins
};

/// One step of an extracted critical path.
struct PathStep {
  GateId gate;
  int input_pin;
  bool output_rising;
  double arrival;  ///< ps at the gate output
};

struct StaResult {
  /// Per-net worst arrival times [ps]; -inf for nets that never transition.
  std::vector<double> arrival_rise;
  std::vector<double> arrival_fall;

  double max_delay = 0.0;             ///< worst PO arrival (>= 0)
  std::size_t critical_output = 0;    ///< PO index achieving max_delay
  std::vector<PathStep> critical_path;  ///< PI-side first

  /// Worst arrival per primary output index (0 for constant outputs).
  std::vector<double> output_delay;

  double net_arrival(NetId net) const;
};

/// Snapshot contract: the constructor reads the netlist's cells and net
/// loads once and keeps each gate's fresh rise/fall delay; every run and
/// gate_delays() call scales that snapshot (aged: base x factor, the same
/// floating-point product as computing it per call). A Sta therefore times
/// the netlist as it was when the Sta was built — after set_gate_cell or any
/// construction call, build a new Sta (size_for_aging does, per iteration).
/// The topology is read per run through Netlist::topo_order().
class Sta {
 public:
  /// `ctx` scopes the instrumentation sinks (run counters, sta_query log
  /// records); nullptr routes to the process-default registry/log, which is
  /// what existing call sites get. Timing results never depend on `ctx`.
  explicit Sta(const Netlist& nl, StaOptions options = {},
               const Context* ctx = nullptr);

  /// Fresh (no-aging) max-delay analysis — paper's t(noAging).
  StaResult run_fresh() const;

  /// Aging-aware analysis. The stress profile must cover every gate
  /// (uniform profiles for worst/balanced, measured profiles from simulation).
  StaResult run_aged(const DegradationAwareLibrary& aged,
                     const StressProfile& stress) const;

  /// Boundary-condition analysis: the given primary inputs are held constant
  /// ("truncated away"), so they never arrive and their exclusive fanout
  /// cones relax. This is the reference algorithm behind IncrementalSta and
  /// deliberately differs from analyzing a re-synthesized truncated netlist
  /// (which constant-propagates gates away and changes loads) — the
  /// DesignStore keys the two families separately. Pass aged == nullptr for
  /// fresh timing. Emits no run-log records and bumps no run counters: the
  /// store's truncated-delay family reports these queries warmth- and
  /// algorithm-invariantly.
  StaResult run_truncated(const DegradationAwareLibrary* aged,
                          const StressProfile* stress,
                          const std::vector<NetId>& truncated_pis) const;

  /// Per-gate aged delays for the event-driven simulator: worst rise/fall arc
  /// delay of each gate at its actual load and a nominal input slew.
  struct GateDelays {
    std::vector<double> rise;  ///< ps, indexed by GateId
    std::vector<double> fall;
  };
  GateDelays gate_delays(const DegradationAwareLibrary* aged,
                         const StressProfile* stress) const;

 private:
  /// Aged scaling of fresh_; only called with aged and stress both set.
  GateDelays aged_delays(const DegradationAwareLibrary& aged,
                         const StressProfile& stress) const;
  StaResult run(const DegradationAwareLibrary* aged,
                const StressProfile* stress) const;
  /// Shared propagation core: `blocked` (per net, may be nullptr) marks
  /// primary inputs that never arrive. Pure — no logging, no counters.
  StaResult run_impl(const DegradationAwareLibrary* aged,
                     const StressProfile* stress,
                     const std::vector<char>* blocked) const;

  const Netlist* nl_;
  StaOptions options_;
  GateDelays fresh_;  ///< construction-time snapshot, see the class comment
  /// Instrumentation handles resolved once at construction against the
  /// context's sinks (a per-instance cache; never static, so each Context's
  /// registry sees its own sta.* counts).
  obs::Counter* fresh_runs_;
  obs::Counter* aged_runs_;
  obs::RunLog* runlog_;
  /// Kept for mechanism counters that must be registered lazily: BTI-only
  /// runs never look them up, so their metrics snapshots carry no new keys.
  obs::MetricsRegistry* metrics_;
};

/// Incremental cone-limited aged STA over ONE netlist (paper-flow use: the
/// characterizer's precision sweep, where point K+1 -> K only *adds* to the
/// set of truncated inputs).
///
/// Truncation is modeled as a boundary condition — truncated PIs never
/// arrive — so consecutive queries whose truncated set grows are answered by
/// re-propagating only the union of the newly-truncated PIs' fanout cones.
/// Cone membership is precomputed once per instance as per-gate PI-dependency
/// bitmasks over the topo order; a gate outside every dirty cone provably
/// keeps its arrival (its fanin arrivals are untouched), and gates inside are
/// recomputed in topo order from a mix of dirty and settled arrivals, which
/// reproduces the full propagation bit-exactly.
///
/// Queries that cannot be served incrementally — the first one, a changed
/// delay scenario (different aged library/stress), or a shrinking or
/// disjoint truncated set — fall back to a full propagation and are counted
/// in engine.sta.incremental.full_fallbacks.
/// Not thread-safe; callers sequence queries (the sweep is serial anyway).
class IncrementalSta {
 public:
  explicit IncrementalSta(const Netlist& nl, StaOptions options = {},
                          const Context* ctx = nullptr);

  /// Worst primary-output arrival (>= 0) with `truncated_pis` held constant.
  /// Pass aged == nullptr for fresh timing. Bit-exact against
  /// Sta::run_truncated with the same arguments, by either path.
  double max_delay(const DegradationAwareLibrary* aged,
                   const StressProfile* stress,
                   const std::vector<NetId>& truncated_pis);

  /// Gates re-propagated by the most recent incremental query (0 after a
  /// full propagation or an unchanged-set repeat). Test/diagnostic hook.
  std::size_t last_dirty_gates() const noexcept { return last_dirty_gates_; }

 private:
  void build_masks();
  void full_propagate();
  void repropagate(const std::vector<std::uint64_t>& dirty);
  void recompute_gate(GateId gid);
  void reduce_outputs();

  const Netlist* nl_;
  Sta sta_;  ///< delay-model provider (gate_delays) and reference options
  /// Per-gate PI-dependency masks, gate-major [gid * mask_words_ + w]:
  /// bit p set iff the gate lies in the fanout cone of primary input p.
  /// Built lazily on the first incremental query.
  std::vector<std::uint64_t> depends_;
  std::size_t mask_words_ = 0;
  bool masks_built_ = false;
  /// Cached state of the last answered query.
  bool valid_ = false;
  Sta::GateDelays gd_;
  std::vector<double> arrival_rise_;
  std::vector<double> arrival_fall_;
  std::vector<std::uint64_t> blocked_;  ///< truncated set, PI-index bitmask
  double max_delay_ = 0.0;
  std::size_t last_dirty_gates_ = 0;
  obs::Counter* hits_;
  obs::Counter* dirty_gates_;
  obs::Counter* full_fallbacks_;
};

}  // namespace aapx
