#include "lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "lp/basis_lu.h"

namespace titan::lp {

std::string status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kNumericalFailure: return "numerical-failure";
  }
  return "?";
}

SolveStats& SolveStats::operator+=(const SolveStats& o) {
  iterations += o.iterations;
  phase1_iterations += o.phase1_iterations;
  stall_pivots += o.stall_pivots;
  bland_pivots += o.bland_pivots;
  refactorizations += o.refactorizations;
  fallback_pivots += o.fallback_pivots;
  warm_started = warm_started || o.warm_started;
  solve_seconds += o.solve_seconds;
  phase1_seconds += o.phase1_seconds;
  phase2_seconds += o.phase2_seconds;
  refactor_seconds += o.refactor_seconds;
  return *this;
}

namespace {

struct Tableau {
  SparseMatrix a;             // computational-form matrix (m x n_total)
  std::vector<double> cost;   // phase-2 costs per column
  std::vector<double> rhs;    // original rhs
  int n_structural = 0;
  int n_total = 0;
  std::vector<bool> artificial;    // per column
  std::vector<int> slack_of;       // per row; -1 for equality rows
  std::vector<int> artificial_of;  // per row; -1 when the slack is feasible
};

Tableau build_tableau(const LpModel& model) {
  Tableau t;
  const int m = model.num_constraints();
  const int n = model.num_variables();
  t.n_structural = n;
  t.rhs = model.rhs();
  t.slack_of.assign(static_cast<std::size_t>(m), -1);
  t.artificial_of.assign(static_cast<std::size_t>(m), -1);

  // The structural columns, then the single-entry slack and artificial
  // columns appended to the same CSC.
  t.a = model.matrix();
  t.cost = model.costs();
  int col = n;
  // Slack / surplus columns.
  for (int i = 0; i < m; ++i) {
    const Sense s = model.senses()[static_cast<std::size_t>(i)];
    if (s == Sense::kLe) {
      t.a.append_column(i, 1.0);
      t.slack_of[static_cast<std::size_t>(i)] = col;
      t.cost.push_back(0.0);
      ++col;
    } else if (s == Sense::kGe) {
      t.a.append_column(i, -1.0);
      t.slack_of[static_cast<std::size_t>(i)] = col;
      t.cost.push_back(0.0);
      ++col;
    }
  }
  // Artificial columns where the slack cannot seed a feasible basis.
  for (int i = 0; i < m; ++i) {
    const Sense s = model.senses()[static_cast<std::size_t>(i)];
    const double b = t.rhs[static_cast<std::size_t>(i)];
    const bool slack_feasible = (s == Sense::kLe && b >= 0.0) || (s == Sense::kGe && b <= 0.0);
    if (!slack_feasible) {
      t.a.append_column(i, b >= 0.0 ? 1.0 : -1.0);
      t.artificial_of[static_cast<std::size_t>(i)] = col;
      t.cost.push_back(0.0);
      ++col;
    }
  }
  t.n_total = col;
  t.artificial.assign(static_cast<std::size_t>(col), false);
  for (const int j : t.artificial_of)
    if (j >= 0) t.artificial[static_cast<std::size_t>(j)] = true;
  return t;
}

// Maps a model-relative Basis onto this tableau's columns. Rejects (returns
// nullopt) on a row-count mismatch, an entry naming a column the model does
// not have, or a duplicated column — the dimension-mismatch fallbacks of
// the warm-start contract.
std::optional<std::vector<int>> map_warm_basis(const Tableau& t, int m, const Basis& warm) {
  if (static_cast<int>(warm.entries.size()) != m) return std::nullopt;
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  std::vector<bool> used(static_cast<std::size_t>(t.n_total), false);
  for (int i = 0; i < m; ++i) {
    const BasisEntry& e = warm.entries[static_cast<std::size_t>(i)];
    int col = -1;
    switch (e.kind) {
      case BasisEntry::Kind::kStructural:
        if (e.index >= 0 && e.index < t.n_structural) col = e.index;
        break;
      case BasisEntry::Kind::kSlack:
        if (e.index >= 0 && e.index < m) col = t.slack_of[static_cast<std::size_t>(e.index)];
        break;
      case BasisEntry::Kind::kArtificial:
        if (e.index >= 0 && e.index < m)
          col = t.artificial_of[static_cast<std::size_t>(e.index)];
        break;
    }
    if (col < 0 || used[static_cast<std::size_t>(col)]) return std::nullopt;
    used[static_cast<std::size_t>(col)] = true;
    basis[static_cast<std::size_t>(i)] = col;
  }
  return basis;
}

// The inverse of map_warm_basis: the final tableau basis back in
// model-relative terms, for the caller to seed the next solve with.
Basis export_basis(const Tableau& t, const std::vector<int>& basis) {
  // Column -> owning row for the non-structural columns.
  std::vector<int> row_of(static_cast<std::size_t>(t.n_total), -1);
  for (std::size_t i = 0; i < t.slack_of.size(); ++i) {
    if (t.slack_of[i] >= 0) row_of[static_cast<std::size_t>(t.slack_of[i])] = static_cast<int>(i);
    if (t.artificial_of[i] >= 0)
      row_of[static_cast<std::size_t>(t.artificial_of[i])] = static_cast<int>(i);
  }
  Basis out;
  out.entries.reserve(basis.size());
  for (const int j : basis) {
    BasisEntry e;
    if (j < t.n_structural) {
      e.kind = BasisEntry::Kind::kStructural;
      e.index = j;
    } else {
      e.kind = t.artificial[static_cast<std::size_t>(j)] ? BasisEntry::Kind::kArtificial
                                                         : BasisEntry::Kind::kSlack;
      e.index = row_of[static_cast<std::size_t>(j)];
    }
    out.entries.push_back(e);
  }
  return out;
}

// Seconds elapsed since `t0` (steady clock); the one timing idiom the
// phase instrumentation below uses.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Runs the simplex from `basis`. Cold starts (warm == false) begin with the
// canonical slack/artificial basis and run phase 1 when artificials are
// present; warm starts skip phase 1 but *gate* on the seeded basis being
// factorizable and primal-feasible (after at most a bounded restoration
// pass), reporting kNumericalFailure otherwise so the caller can rerun cold.
Solution solve_from(const LpModel& model, const Tableau& t, std::vector<int> basis, bool warm,
                    const SolveOptions& options) {
  Solution sol;
  sol.warm_started = warm;
  const int m = model.num_constraints();

  // Every LU factorization is counted and its wall time accumulated —
  // the refactorization share of the phase-timing breakdown.
  const auto timed_factorize = [&](BasisLu& lu_) {
    const auto f0 = std::chrono::steady_clock::now();
    const bool ok = lu_.factorize(t.a, basis, options.pivot_tol);
    sol.refactor_seconds += seconds_since(f0);
    ++sol.refactorizations;
    return ok;
  };

  BasisLu lu;
  if (!timed_factorize(lu)) {
    sol.status = SolveStatus::kNumericalFailure;
    return sol;
  }

  // Basic values x_B = B^{-1} b.
  std::vector<double> xb = t.rhs;
  lu.ftran(xb);

  // Phase-1 costs: 1 on artificials, 0 elsewhere.
  std::vector<double> phase1_cost(static_cast<std::size_t>(t.n_total), 0.0);
  for (int j = 0; j < t.n_total; ++j)
    if (t.artificial[static_cast<std::size_t>(j)]) phase1_cost[static_cast<std::size_t>(j)] = 1.0;

  // The one pivot loop: BTRAN, windowed pricing, FTRAN, ratio test, pivot,
  // LU update or refactorization. Two rules share it:
  //  * a phase (restore == false) prices with the fixed `cost`, takes
  //    Dantzig's most negative reduced cost within a cyclic window, and
  //    switches to Bland's rule (first negative column, lowest basic index
  //    on ratio ties) once bland_trigger consecutive pivots were
  //    degenerate, until the next nondegenerate pivot breaks the stall;
  //  * restoration (restore == true, warm seeds only) is a composite
  //    phase 1 minimizing total primal infeasibility: the basic costs are
  //    recomputed every iteration — +1 on artificials above zero, -1 on
  //    negative basics — and the ratio test admits both blocker kinds, a
  //    nonnegative basic dropping to zero and a negative one rising to it.
  //    It returns kOptimal once the basis is primal-feasible; `cost` must
  //    be zero on every column it may price (phase1_cost, with artificials
  //    blocked).
  // Returns kIterationLimit once `iteration_counter` reaches `cap`.
  //
  // Only alpha's nonzero rows (alpha_nz, ascending) enter the ratio test,
  // the x_B update and the eta: a zero alpha never blocks, ascending order
  // keeps every tie-break, Bland's included, and the skipped
  // xb - theta * (+-0) could only flip the sign of a zero x_B, which every
  // reader below (comparisons, std::max(0.0, .)) ignores.
  std::vector<double> y(static_cast<std::size_t>(m));
  std::vector<double> alpha(static_cast<std::size_t>(m));
  std::vector<int> alpha_nz(static_cast<std::size_t>(m));
  std::vector<double> cost_b(static_cast<std::size_t>(m));
  std::vector<char> blocked(static_cast<std::size_t>(t.n_total));
  auto run_phase = [&](const std::vector<double>& cost, bool block_artificials, bool restore,
                       int cap, int& iteration_counter) -> SolveStatus {
    int degenerate_streak = 0;
    // The phase's pricing mask: basic columns, and artificials when they
    // are blocked, are never priced. c_B is kept in step with the basis.
    for (int j = 0; j < t.n_total; ++j)
      blocked[static_cast<std::size_t>(j)] =
          static_cast<char>(block_artificials && t.artificial[static_cast<std::size_t>(j)]);
    for (int i = 0; i < m; ++i) {
      const int j = basis[static_cast<std::size_t>(i)];
      blocked[static_cast<std::size_t>(j)] = 1;
      cost_b[static_cast<std::size_t>(i)] = cost[static_cast<std::size_t>(j)];
    }
    // Partial (cyclic) pricing: scan a window of columns per iteration,
    // remembering where we stopped. A full fruitless sweep proves
    // optimality. Bland mode scans from column 0 instead.
    int scan_cursor = 0;
    const int window = std::max(512, t.n_total / 16);

    while (true) {
      if (restore) {
        bool infeasible = false;
        for (int i = 0; i < m; ++i) {
          const int j = basis[static_cast<std::size_t>(i)];
          const double v = xb[static_cast<std::size_t>(i)];
          double c = 0.0;
          if (t.artificial[static_cast<std::size_t>(j)] && v > 1e-6) {
            c = 1.0;
            infeasible = true;
          } else if (v < -options.feasibility_tol) {
            c = -1.0;
            infeasible = true;
          }
          y[static_cast<std::size_t>(i)] = c;
        }
        if (!infeasible) return SolveStatus::kOptimal;
      } else {
        std::copy(cost_b.begin(), cost_b.end(), y.begin());
      }
      if (iteration_counter >= cap) return SolveStatus::kIterationLimit;

      // BTRAN: y = B^{-T} c_B.
      lu.btran(y);

      // Pricing.
      const bool use_bland = !restore && degenerate_streak >= options.bland_trigger;
      int entering = -1;
      double best_dj = -options.optimality_tol;
      int cursor = use_bland ? 0 : scan_cursor;
      for (int scanned = 0; scanned < t.n_total && entering < 0;) {
        const int stop = use_bland ? t.n_total : std::min(cursor + window, t.n_total);
        for (int j = cursor; j < stop; ++j) {
          if (blocked[static_cast<std::size_t>(j)]) continue;
          const double dj = cost[static_cast<std::size_t>(j)] - t.a.dot_column(j, y);
          if (dj < best_dj) {
            best_dj = dj;
            entering = j;
            if (use_bland) break;
          }
        }
        scanned += stop - cursor;
        cursor = stop == t.n_total ? 0 : stop;
      }
      if (!use_bland) scan_cursor = cursor;
      // No improving column: optimal, or — for restoration — stalled while
      // still infeasible.
      if (entering < 0) return restore ? SolveStatus::kInfeasible : SolveStatus::kOptimal;

      // FTRAN the entering column.
      std::fill(alpha.begin(), alpha.end(), 0.0);
      t.a.axpy_column(entering, 1.0, alpha);
      lu.ftran(alpha);
      int nnz = 0;
      for (int i = 0; i < m; ++i) {
        alpha_nz[static_cast<std::size_t>(nnz)] = i;
        nnz += alpha[static_cast<std::size_t>(i)] != 0.0;
      }
      const std::span<const int> nonzeros(alpha_nz.data(), static_cast<std::size_t>(nnz));

      // Ratio test. A phase replaces its incumbent only on a ratio smaller
      // by more than feasibility_tol (Bland: or a near-tie with a lower
      // basic column index); restoration on any strictly smaller ratio.
      int leaving = -1;
      double theta = std::numeric_limits<double>::infinity();
      const double margin = restore ? 0.0 : options.feasibility_tol;
      for (const int i : nonzeros) {
        const double ai = alpha[static_cast<std::size_t>(i)];
        const double v = xb[static_cast<std::size_t>(i)];
        double ratio = -1.0;
        if (ai > options.pivot_tol && (!restore || v >= -options.feasibility_tol))
          ratio = std::max(0.0, v) / ai;
        else if (restore && v < -options.feasibility_tol && ai < -options.pivot_tol)
          ratio = v / ai;  // negative basic rising to zero
        if (ratio < 0.0) continue;
        if (ratio < theta - margin ||
            (use_bland && ratio < theta + options.feasibility_tol && leaving >= 0 &&
             basis[static_cast<std::size_t>(i)] < basis[static_cast<std::size_t>(leaving)])) {
          theta = ratio;
          leaving = i;
        }
      }
      if (leaving < 0) return SolveStatus::kUnbounded;

      // Stall accounting (phases only) feeds both the anti-cycling rule
      // and the surfaced counters.
      if (!restore) {
        if (use_bland) ++sol.bland_pivots;
        if (theta <= options.feasibility_tol) {
          ++sol.stall_pivots;
          ++degenerate_streak;
        } else {
          degenerate_streak = 0;
        }
      }

      // Apply the pivot.
      for (const int i : nonzeros)
        xb[static_cast<std::size_t>(i)] -= theta * alpha[static_cast<std::size_t>(i)];
      xb[static_cast<std::size_t>(leaving)] = theta;
      const int left = basis[static_cast<std::size_t>(leaving)];
      blocked[static_cast<std::size_t>(left)] =
          static_cast<char>(block_artificials && t.artificial[static_cast<std::size_t>(left)]);
      blocked[static_cast<std::size_t>(entering)] = 1;
      basis[static_cast<std::size_t>(leaving)] = entering;
      cost_b[static_cast<std::size_t>(leaving)] = cost[static_cast<std::size_t>(entering)];
      ++iteration_counter;

      const bool updated = lu.update(leaving, alpha, nonzeros, options.pivot_tol);
      if (!updated || lu.eta_count() >= options.refactor_interval) {
        if (!timed_factorize(lu)) return SolveStatus::kNumericalFailure;
        xb = t.rhs;
        lu.ftran(xb);
      }
    }
  };

  // ---- Phase 1. A clean warm seed skips straight to phase 2. A damaged
  // one — hot artificials (rows the transfer never covered, e.g. the fresh
  // tail of a rolling horizon) or negative basics (rhs drift: a capacity
  // cut, a drained DC, a link-peak variable below the shifted window's new
  // peak) — is repaired by restoration, but only when the damage is within
  // warm_repair_limit of the rows; past that a cold phase 1 is cheaper
  // (measured on the plan LPs). A failed repair falls back cold.
  if (warm) {
    int damaged = 0;
    for (int i = 0; i < m; ++i) {
      const double v = xb[static_cast<std::size_t>(i)];
      if (v < -options.feasibility_tol ||
          (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] && v > 1e-6))
        ++damaged;
    }
    if (damaged > 0) {
      if (damaged > options.warm_repair_limit * m) {
        sol.status = SolveStatus::kNumericalFailure;
        return sol;
      }
      const auto p1_start = std::chrono::steady_clock::now();
      const SolveStatus s1 =
          run_phase(phase1_cost, /*block_artificials=*/true, /*restore=*/true,
                    std::min(options.max_iterations, 2 * m + 100), sol.phase1_iterations);
      sol.phase1_seconds += seconds_since(p1_start);
      sol.iterations += sol.phase1_iterations;
      if (s1 != SolveStatus::kOptimal) {
        sol.status = SolveStatus::kNumericalFailure;
        return sol;
      }
    }
  }
  bool need_phase1 = false;
  if (!warm)
    for (const int j : basis)
      if (t.artificial[static_cast<std::size_t>(j)]) need_phase1 = true;
  if (need_phase1) {
    const auto p1_start = std::chrono::steady_clock::now();
    const SolveStatus s1 = run_phase(phase1_cost, /*block_artificials=*/false, /*restore=*/false,
                                     options.max_iterations, sol.phase1_iterations);
    sol.phase1_seconds += seconds_since(p1_start);
    sol.iterations += sol.phase1_iterations;
    if (s1 == SolveStatus::kIterationLimit || s1 == SolveStatus::kNumericalFailure) {
      sol.status = s1;
      return sol;
    }
    double infeas = 0.0;
    for (int i = 0; i < m; ++i)
      if (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])])
        infeas += std::max(0.0, xb[static_cast<std::size_t>(i)]);
    if (infeas > 1e-6) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
  }

  // ---- Phase 2 (artificials blocked from re-entering).
  int phase2_iters = 0;
  const auto p2_start = std::chrono::steady_clock::now();
  const SolveStatus s2 = run_phase(t.cost, /*block_artificials=*/true, /*restore=*/false,
                                   options.max_iterations, phase2_iters);
  sol.phase2_seconds += seconds_since(p2_start);
  sol.iterations += phase2_iters;
  if (s2 != SolveStatus::kOptimal) {
    sol.status = s2;
    return sol;
  }

  // An artificial that stayed basic at zero through phase 2 can drift
  // positive during later pivots (the ratio test only guards basics from
  // going *negative*), which would mean the "optimal" point violates the
  // artificial's row. Refuse to report such a point: a warm solve falls
  // back to the cold path, a cold solve fails loudly rather than hand the
  // caller a plan that silently under-serves an equality row.
  for (int i = 0; i < m; ++i) {
    if (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] &&
        xb[static_cast<std::size_t>(i)] > 1e-6) {
      sol.status = SolveStatus::kNumericalFailure;
      return sol;
    }
  }

  // Extract structural solution.
  sol.x.assign(static_cast<std::size_t>(t.n_structural), 0.0);
  for (int i = 0; i < m; ++i) {
    const int j = basis[static_cast<std::size_t>(i)];
    if (j < t.n_structural)
      sol.x[static_cast<std::size_t>(j)] = std::max(0.0, xb[static_cast<std::size_t>(i)]);
  }
  sol.objective = model.objective_value(sol.x);
  sol.status = SolveStatus::kOptimal;
  sol.basis = export_basis(t, basis);
  // Row duals y = B^{-T} c_B at the optimal basis.
  sol.duals.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i)
    sol.duals[static_cast<std::size_t>(i)] =
        t.cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
  lu.btran(sol.duals);
  return sol;
}

// Cold initial basis: feasible slack where possible, else the artificial
// allocated for the row.
std::vector<int> cold_basis(const Tableau& t, int m) {
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  for (int i = 0; i < m; ++i) {
    const int slack = t.slack_of[static_cast<std::size_t>(i)];
    const int artificial = t.artificial_of[static_cast<std::size_t>(i)];
    basis[static_cast<std::size_t>(i)] = artificial >= 0 ? artificial : slack;
  }
  return basis;
}

}  // namespace

Solution solve(const LpModel& model, const SolveOptions& options) {
  const auto t_start = std::chrono::steady_clock::now();
  const Tableau t = build_tableau(model);
  const int m = model.num_constraints();

  Solution sol = solve_from(model, t, cold_basis(t, m), /*warm=*/false, options);
  sol.solve_seconds = seconds_since(t_start);
  return sol;
}

Solution solve(const LpModel& model, const Basis& warm, const SolveOptions& options) {
  const auto t_start = std::chrono::steady_clock::now();
  const Tableau t = build_tableau(model);
  const int m = model.num_constraints();

  Solution sol;
  sol.status = SolveStatus::kNumericalFailure;
  if (auto mapped = map_warm_basis(t, m, warm)) {
    // Structural-rank repair: a transferred basis can be singular when the
    // entries that used to pivot some rows did not survive the transfer
    // (which rows those are is invisible at the label level). Diagnose with
    // the LU, swap each failed position for the slack/artificial of an
    // unpivoted row, and retry; two rounds cover the cascade where a repair
    // unblocks a previously-masked dependency.
    for (int round = 0; round < 2; ++round) {
      BasisLu probe;
      BasisLu::Deficiency def;
      if (probe.factorize(t.a, *mapped, options.pivot_tol, &def) || !def.any()) break;
      bool repaired = true;
      for (std::size_t k = 0; k < def.positions.size() && repaired; ++k) {
        const int row = def.rows[k];
        const int unit = t.slack_of[static_cast<std::size_t>(row)] >= 0
                             ? t.slack_of[static_cast<std::size_t>(row)]
                             : t.artificial_of[static_cast<std::size_t>(row)];
        repaired = unit >= 0;
        if (repaired) (*mapped)[static_cast<std::size_t>(def.positions[k])] = unit;
      }
      if (!repaired) break;
    }
    sol = solve_from(model, t, std::move(*mapped), /*warm=*/true, options);
  }
  // Any warm failure — unmappable basis, singular factorization, infeasible
  // seed, or numerical trouble mid-phase-2 — falls back to the cold path,
  // reusing the tableau already built above. The failed attempt's pivots
  // are counted, not dropped with its Solution.
  if (sol.status == SolveStatus::kNumericalFailure) {
    const int discarded = sol.iterations;
    sol = solve_from(model, t, cold_basis(t, m), /*warm=*/false, options);
    sol.fallback_pivots = discarded;
    sol.solve_seconds = seconds_since(t_start);
    return sol;
  }
  sol.solve_seconds = seconds_since(t_start);
  return sol;
}

}  // namespace titan::lp
