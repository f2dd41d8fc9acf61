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

// Region-block decomposition policy for solve_plan (docs/solver.md):
//  * kAuto: decompose multi-continent scopes; single-continent scopes take
//    the monolithic path — byte for byte the historical behaviour, which is
//    what keeps every single-region golden checksum unchanged.
//  * kForce: decompose whenever the scope supports it, including the
//    degenerate single-block case (the equivalence tests run this against
//    kOff on the same inputs).
//  * kOff: always monolithic.
// Decomposition only applies to the kMinimizeWanPeaks objective (the LF
// baselines solve monolithically), and every gate failure — overlapping
// block link sets, a failed block or coupling solve, a violated global e2e
// bound — falls back to the monolithic solve transparently.
enum class Decomposition { kOff, kAuto, kForce };

struct LpBuildOptions {
  Objective objective = Objective::kMinimizeWanPeaks;
  // C4 bound: average (over assigned units) of max-E2E latency, msec.
  // <= 0 disables the constraint (the LF baselines drop it).
  double e2e_bound_ms = 80.0;
  Decomposition decomposition = Decomposition::kAuto;
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
// a plan solve ran (one for a monolithic solve; per-block + coupling for a
// decomposed one), plus the work around the simplex. `+=` sums every field,
// so the pipeline's headroom-relaxation retries and the simulator's replans
// report the work of every attempt.
struct PlanLpStats : lp::SolveStats {
  // Model construction (wall clock); solve_seconds excludes it.
  double build_seconds = 0.0;
  // Region blocks solved to optimality by the decomposed path; 0 for a
  // monolithic solve (the coupling LP is not counted as a block).
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
// structural-rank repair and warm phase 1 then resolve. Returns nullopt
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
// the solve IS the cold path, byte for byte. Under the decomposition
// policy above, multi-continent scopes are split into per-region block
// LPs plus a coupling LP over the cross-region demands, each block warm-
// started from its own cached context. See docs/solver.md, "Warm-start
// lifecycle" and "Region-block decomposition".
[[nodiscard]] LpPlanResult solve_plan(const PlanInputs& inputs, const LpBuildOptions& options,
                                      WarmStartCache* warm = nullptr);

// Exposed for tests: just build the model (variable layout documented in
// the .cc file).
[[nodiscard]] lp::LpModel build_model(const PlanInputs& inputs, const LpBuildOptions& options);

}  // namespace titan::titannext
