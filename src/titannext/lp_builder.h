// LP formulation of the joint MP-DC + routing assignment (Fig. 13).
//
//   variable  X[t][c][m][p]  — reduced-config units of config c assigned in
//                              timeslot t to MP DC m over routing option p;
//   variable  y[l]           — peak WAN bandwidth on link l;
//   objective minimize sum_l y[l]             (sum of WAN link peaks)
//   C1  sum_{m,p} X = N[t][c]                 (all calls assigned)
//   C2  sum_{c,p} X * computeUsed(c) <= Cap[t][m]
//   C3  sum_c X[.,Internet] * networkUsed(c) <= InternetCap[t][m]
//   C4  avg of max-E2E latency across assignments <= E
//   C5  y[l] >= sum X * networkUsed * isLinkUsed(c,m,WAN,l)   for all t
//
// The builder also produces the Locality-First baselines (§7.2) by swapping
// the objective for total latency (or total max-E2E latency) and dropping
// C4 — per the paper, LF keeps the same constraint set otherwise.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "titannext/inputs.h"

namespace titan::titannext {

enum class Objective {
  kMinimizeWanPeaks,      // Titan-Next
  kMinimizeTotalLatency,  // Locality-First
  kMinimizeTotalMaxE2e,   // LF variant optimizing total max-E2E latency
};

struct LpBuildOptions {
  Objective objective = Objective::kMinimizeWanPeaks;
  // C4 bound: average (over assigned units) of max-E2E latency, msec.
  // <= 0 disables the constraint (the LF baselines drop it).
  double e2e_bound_ms = 80.0;
  lp::SolveOptions solver;
};

// Fractional assignment weights for one (timeslot, demand index).
struct AssignmentWeights {
  struct Entry {
    core::DcId dc;
    net::PathType path;
    double units;
  };
  std::vector<Entry> entries;
};

// The LP work record of plan solves: lp::SolveStats summed over every LP
// a plan solve ran (the whole scope, or each region block plus the
// coupling LP), plus the work around the simplex. `+=` sums every field,
// so the pipeline's headroom-relaxation retries and the simulator's
// replans report the work of every attempt.
struct PlanLpStats : lp::SolveStats {
  // Model construction (wall clock); solve_seconds excludes it.
  double build_seconds = 0.0;
  // Region blocks solved to optimality by a decomposed solve that was
  // kept; 0 for a whole-scope solve (the coupling LP is not a block).
  int blocks_solved = 0;
  int attempts = 0;  // solve_plan calls (headroom-relaxation attempts)

  using lp::SolveStats::operator+=;
  PlanLpStats& operator+=(const PlanLpStats& o);
  void zero_wallclock() {
    lp::SolveStats::zero_wallclock();
    build_seconds = 0.0;
  }
  bool operator==(const PlanLpStats&) const = default;
};

struct LpPlanResult : PlanLpStats {
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  double objective = 0.0;
  // weights[t][demand_idx]
  std::vector<std::vector<AssignmentWeights>> weights;
  // Realized sum over links of peak WAN bandwidth of the fractional plan.
  double sum_of_wan_peaks_mbps = 0.0;
};

// Identity snapshot of a solved plan LP plus its final simplex basis. The
// model layout is a pure function of (timeslots, demand order, DC order,
// link order, e2e-row presence); snapshotting those labels lets the basis
// be re-expressed against a *rebuilt* model of the same PlanScope even when
// a later forecast reorders or truncates the demand set — columns and rows
// are matched by meaning ((slot, reduced shape, DC, path) for assignment
// variables, link id for peak variables and rows), not by index.
struct PlanBasisContext {
  lp::Basis basis;
  std::vector<workload::CallConfig> shapes;  // demand shapes, model order
  std::vector<core::DcId> dcs;
  std::vector<core::LinkId> links;
  int timeslots = 0;
  bool e2e_row = false;  // whether the C4 row existed
  // Absolute slot the plan horizon started at. A later replan of the same
  // scope maps slot labels *through time*: horizon-relative slot t of this
  // plan is slot t - shift of the next one (shift = difference of the two
  // begins), so only the overlapping window transfers. Disjoint windows
  // (replan interval == horizon, the test cadence) transfer nothing and
  // deliberately fall back to a cold solve.
  core::SlotIndex plan_begin = 0;
  [[nodiscard]] bool valid() const { return !basis.empty(); }
};

// Rolling warm-start state for one replan loop (i.e. one PlanScope).
// `solve_plan` consumes `last` to seed the simplex and overwrites it with
// the fresh basis after every optimal solve. The replan loop sets
// `next_plan_begin` to the new horizon's absolute start slot before each
// solve; callers re-solving one fixed window can leave both begins at 0.
// Decomposed solves keep one context per region block instead (keyed by
// the block's Continent), each carried across replans exactly like `last`;
// the small coupling LP always solves cold.
struct WarmStartCache {
  PlanBasisContext last;
  std::map<geo::Continent, PlanBasisContext> blocks;
  core::SlotIndex next_plan_begin = 0;
};

// Re-expresses `prev`'s basis against the model build_model(inputs,
// options) produces, with the horizon window advanced by `shift_slots`
// (0 = re-solving the same window). Surviving labels — overlapping slots,
// shapes still in the demand set, links still on a path, same DCs — carry
// their entries over; everything else (the fresh tail of the horizon, new
// shapes/links) is completed with slacks/artificials that lp::solve's
// structural-rank repair and warm dual phase then resolve. Returns nullopt
// when nothing can transfer (disjoint windows, changed horizon length).
// The result is only a *candidate*: lp::solve still gates on factorization
// and basic feasibility and cold-solves otherwise.
[[nodiscard]] std::optional<lp::Basis> remap_basis(const PlanBasisContext& prev,
                                                   const PlanInputs& inputs,
                                                   const LpBuildOptions& options,
                                                   int shift_slots = 0);

// Builds and solves the plan LP over the inputs. With a cache, the solve is
// seeded from the cache's previous basis (warm start) and the cache is
// updated with the new basis on success. A transferred seed reaches the
// same objective as a cold solve but may stop at a different vertex of the
// optimal face; when nothing transfers (disjoint windows, failed gates)
// the solve IS the cold path, byte for byte. A kMinimizeWanPeaks plan over
// a multi-region scope is first decomposed into region-block LPs and a
// coupling LP; a failed gate discards that attempt (its work counted in
// `fallback_pivots`) for the whole-scope LP. See docs/solver.md,
// "Warm-start lifecycle" and "Region-block decomposition".
[[nodiscard]] LpPlanResult solve_plan(const PlanInputs& inputs, const LpBuildOptions& options,
                                      WarmStartCache* warm = nullptr);

// Per-slot use of a plan's weights, `[t][m]` over a PlanInputs' DCs and
// `[t][l]` over `links`.
struct PlanUse {
  std::vector<core::LinkId> links;
  std::vector<std::vector<double>> compute;   // cores
  std::vector<std::vector<double>> internet;  // Internet-path Mbps
  std::vector<std::vector<double>> link;      // WAN Mbps
};

// The plan LP over the inputs (variable and row layout documented in the
// .cc file and docs/solver.md). With `committed` — the use other parts of
// the same plan already take, over the inputs' DCs — C2/C3 get residual
// capacities and the C5 rows and y columns run over `committed->links`,
// each y charging only its link's growth above the committed peak.
[[nodiscard]] lp::LpModel build_model(const PlanInputs& inputs, const LpBuildOptions& options,
                                      const PlanUse* committed = nullptr);

}  // namespace titan::titannext
