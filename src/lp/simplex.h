// Revised simplex: a dual phase, then primal phase 2.
//
// Solves min c'x s.t. Ax {<=,=,>=} b, x >= 0 as built by LpModel. Slacks
// and surpluses convert rows to equalities; artificials complete the
// initial basis where a slack cannot (equality rows, wrong-sign rhs) and
// are fixed at zero. Every solve runs the same two phases from a seed
// basis: the slack/artificial basis for a cold solve, a caller basis for a
// warm one. A seed with hot artificials or negative basics is first made
// primal feasible by the dual phase: dual infeasibilities are removed by
// shifting costs, and the leaving row is priced by dual Devex weights. The
// dual phase is also the one proof of infeasibility, a Farkas ray. Its
// per-pivot work follows the nonzeros: it prices a candidate list of the
// infeasible rows and solves for rho and alpha with BasisLu's hypersparse
// solves, bit for bit the dense ones. Primal
// phase 2 then removes the shifts and finishes on the true costs; its
// ratio test holds a basic artificial at zero from both sides. The
// basis is held in a sparse LU (BasisLu) refreshed by product-form eta
// updates and periodically refactorized. Phase 2 prices Dantzig over a
// cyclic window of columns, with a Bland's-rule fallback while pivots stay
// degenerate. A warm seed that cannot be factorized or repaired falls back
// to the cold path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.h"

namespace titan::lp {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit, kNumericalFailure };

[[nodiscard]] std::string status_name(SolveStatus s);

struct SolveOptions {
  int max_iterations = 200000;
  double optimality_tol = 1e-7;   // reduced-cost tolerance
  double feasibility_tol = 1e-7;  // basic-value / ratio-test tolerance
  double pivot_tol = 1e-9;
  // Consecutive degenerate pivots before Bland's rule takes over; it stays
  // on until the next nondegenerate pivot. max_iterations remains the
  // termination backstop.
  int bland_trigger = 40;
};

// One simplex-basis member, in model-relative terms: either a structural
// column (by column index) or the slack/surplus or artificial column owned
// by a constraint row (by row index). Encoding by *meaning* rather than by
// computational-form column number lets a basis survive a model rebuild
// whose row/column identities are preserved — the warm-start contract
// documented in docs/solver.md.
struct BasisEntry {
  enum class Kind : std::uint8_t { kStructural, kSlack, kArtificial };
  Kind kind = Kind::kSlack;
  int index = 0;  // kStructural: column; kSlack/kArtificial: owning row
  friend bool operator==(const BasisEntry&, const BasisEntry&) = default;
};

// A full basis: exactly one entry per constraint row of the model it was
// extracted from (the entry order carries no meaning — a basis is a set).
struct Basis {
  std::vector<BasisEntry> entries;
  [[nodiscard]] bool empty() const { return entries.empty(); }
  friend bool operator==(const Basis&, const Basis&) = default;
};

// The work one solve did: the one LP work record. Every layer that reports
// LP work (LpPlanResult, the pipeline's DayPlan, the simulator's per-replan
// stats) carries this record, extended where that layer adds work, and sums
// it with `+=`. Counters are deterministic (the pivot sequence and the
// eta-growth policy are); the seconds are wall clock and zeroed by
// zero_wallclock() before bitwise compares.
struct SolveStats {
  int iterations = 0;  // total pivots: dual phase + phase 2
  // Pivots of the dual phase, cold or warm (the name predates the removal
  // of primal phase 1).
  int phase1_iterations = 0;
  // Anti-cycling observability: degenerate pivots taken (the stall
  // detector's raw signal) and pivots taken under Bland's rule.
  int stall_pivots = 0;
  int bland_pivots = 0;
  int refactorizations = 0;  // LU factorizations, counted in either phase
  // Pivots of any discarded attempt: a failed warm attempt (dual phase or
  // phase 2) that the cold fallback replaced, or a decomposed plan attempt
  // that failed a gate (titannext::solve_plan). Not part of `iterations`,
  // but their time is in solve_seconds (and in fallback_seconds).
  int fallback_pivots = 0;
  // Solved from a caller basis instead of the slack/artificial one; `+=`
  // ORs it, so a summed record says whether any of its solves ran warm.
  bool warm_started = false;
  // lp::solve end to end: tableau construction, basis mapping and every
  // phase, a failed warm attempt included. Model construction is not
  // lp::solve's work and is not in here (see titannext::PlanLpStats).
  double solve_seconds = 0.0;
  // Phase breakdown of solve_seconds (the parts do not sum to it).
  // refactor_seconds is the LU (re)factorization share, counted inside
  // whichever phase triggered it.
  double phase1_seconds = 0.0;  // the dual phase, cold or warm
  double phase2_seconds = 0.0;
  double refactor_seconds = 0.0;
  // The share of solve_seconds spent on discarded attempts (the work
  // fallback_pivots counts), whose phase seconds are dropped with them.
  double fallback_seconds = 0.0;

  SolveStats& operator+=(const SolveStats& o);
  void zero_wallclock() {
    solve_seconds = phase1_seconds = phase2_seconds = refactor_seconds = fallback_seconds = 0.0;
  }
  bool operator==(const SolveStats&) const = default;
};

struct Solution : SolveStats {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> x;  // structural variables only
  Basis basis;            // final basis, filled when status == kOptimal
  // Row duals y (one per constraint, model row order) at the optimal
  // basis, priced with the phase-2 costs. Empty unless status == kOptimal.
  std::vector<double> duals;
};

// Cold solve: the seeded solve from the slack/artificial basis (the slack
// where it is feasible, otherwise the row's artificial). Its dual phase may
// run up to max_iterations pivots.
[[nodiscard]] Solution solve(const LpModel& model, const SolveOptions& options = {});

// Warm-started solve: seeds the simplex with `warm` (a Solution::basis from
// an earlier solve of a structurally compatible model) instead of the
// slack/artificial basis. When the seeded basis maps onto this model and
// factorizes, a primal-feasible seed goes straight to phase 2 and a
// damaged one is repaired by the dual phase first, capped at 2m + 100
// pivots (a cold dual phase may run max_iterations). A dual phase that
// finds a Farkas ray returns kInfeasible warm. On a dimension mismatch, a
// singular factorization, a failed repair, or a numerical failure
// mid-solve, the call transparently falls back to the cold path — the
// result is always as trustworthy as solve() without a basis.
[[nodiscard]] Solution solve(const LpModel& model, const Basis& warm,
                             const SolveOptions& options = {});

}  // namespace titan::lp
