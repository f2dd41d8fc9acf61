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
  fallback_seconds += o.fallback_seconds;
  return *this;
}

namespace {

// An artificial above this value leaves its row unsatisfied: a hot
// artificial in a seed and the fault check after phase 2 both use it. It
// also bounds a Farkas ray's rho^T b away from zero.
constexpr double kArtificialTol = 1e-6;

// The dual phase raises each enterable cost by kDualPerturbation * (1 + |c_j|)
// * (1 + u_j), u_j in [0, 1) from tie_breaker(j). Plan-LP seeds carry
// thousands of zero reduced costs, so without the perturbation most dual
// pivots leave the dual objective where it was (perfbench `steady`, seed 1:
// 444 pivots per replan and 18.6 ms of dual phase against 348 and 10.9 ms
// with it).
constexpr double kDualPerturbation = 1e-6;

// A deterministic pseudo-random value in [0, 1) per column (Knuth's
// multiplicative hash, top 24 bits).
double tie_breaker(int j) {
  return static_cast<double>((static_cast<std::uint32_t>(j) * 2654435761u) >> 8) / 16777216.0;
}

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
  // columns (at most one of each per row) appended to the same CSC.
  t.a = model.matrix();
  t.a.reserve_columns(2 * m);
  t.cost.reserve(static_cast<std::size_t>(n) + 2 * static_cast<std::size_t>(m));
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

// A factorization of the seed basis made before solve_from: the warm
// path's structural-rank probe, handed on so the seed is factorized once.
struct SeedFactorization {
  BasisLu lu;
  double seconds = 0.0;
};

// Runs the simplex from `basis`: the dual phase while the seed is primal
// infeasible, then primal phase 2. Cold starts (warm == false) seed it with
// the slack/artificial basis of cold_basis; warm starts with a caller basis,
// and a warm seed that cannot be factorized or repaired reports
// kNumericalFailure so the caller can rerun cold. With `seeded`, `basis`
// is already factorized there, and that factorization counts as the
// solve's first.
Solution solve_from(const LpModel& model, const Tableau& t, std::vector<int> basis, bool warm,
                    const SolveOptions& options, SeedFactorization* seeded = nullptr) {
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

  BasisLu own_lu;
  BasisLu& lu = seeded != nullptr ? seeded->lu : own_lu;
  if (seeded != nullptr) {
    sol.refactor_seconds += seeded->seconds;
    ++sol.refactorizations;
  } else if (!timed_factorize(lu)) {
    sol.status = SolveStatus::kNumericalFailure;
    return sol;
  }

  // Basic values x_B = B^{-1} b.
  std::vector<double> xb = t.rhs;
  lu.ftran(xb);

  // State both pivot loops share. `blocked` is the pricing mask: basic
  // columns and artificials, which are fixed at zero, never enter.
  std::vector<double> y(static_cast<std::size_t>(m));
  std::vector<double> alpha(static_cast<std::size_t>(m));
  std::vector<int> alpha_nz;
  alpha_nz.reserve(static_cast<std::size_t>(m));
  std::vector<double> cost_b(static_cast<std::size_t>(m));
  std::vector<char> blocked(t.artificial.begin(), t.artificial.end());
  for (const int j : basis) blocked[static_cast<std::size_t>(j)] = 1;
  // alpha = B^{-1} a_j by the hypersparse FTRAN, returning alpha's nonzero
  // rows in ascending order; only the previous alpha's nonzeros are
  // cleared. This helper and `pivot` are forced inline: called from both
  // pivot loops, they were left as calls, and the primal loop then ran
  // cold solves ~8% slower (five plan LPs timed in-process, same pivots).
  const auto ftran_column = [&](int j) __attribute__((always_inline)) {
    for (const int i : alpha_nz) alpha[static_cast<std::size_t>(i)] = 0.0;
    alpha_nz.clear();
    for (int k = t.a.col_begin(j); k < t.a.col_end(j); ++k) {
      alpha[static_cast<std::size_t>(t.a.row_index(k))] = t.a.value(k);
      alpha_nz.push_back(t.a.row_index(k));
    }
    lu.ftran(alpha, alpha_nz);
    return std::span<const int>(alpha_nz);
  };
  // Column `entering` replaces the basic column at row `leaving` and takes
  // the value `theta`; alpha holds its FTRAN image. Refactorizes when the
  // eta update fails or the eta file is full.
  const auto pivot = [&](int leaving, int entering, double theta, std::span<const int> nonzeros)
                        __attribute__((always_inline)) {
    for (const int i : nonzeros)
      xb[static_cast<std::size_t>(i)] -= theta * alpha[static_cast<std::size_t>(i)];
    xb[static_cast<std::size_t>(leaving)] = theta;
    const auto left = static_cast<std::size_t>(basis[static_cast<std::size_t>(leaving)]);
    blocked[left] = static_cast<char>(t.artificial[left]);
    blocked[static_cast<std::size_t>(entering)] = 1;
    basis[static_cast<std::size_t>(leaving)] = entering;
    const bool updated = lu.update(leaving, alpha, nonzeros, options.pivot_tol);
    if (updated && lu.eta_count() < BasisLu::kRefactorInterval) return true;
    if (!timed_factorize(lu)) return false;
    xb = t.rhs;
    lu.ftran(xb);
    return true;
  };

  // The primal pivot loop of phase 2: BTRAN, windowed pricing, FTRAN, ratio
  // test, pivot, LU update or refactorization. It prices with t.cost, takes
  // Dantzig's most negative reduced cost within a cyclic window, and
  // switches to Bland's rule (first negative column, lowest basic index on
  // ratio ties) once bland_trigger consecutive pivots were degenerate,
  // until the next nondegenerate pivot breaks the stall. Returns
  // kIterationLimit once `iteration_counter` reaches max_iterations.
  //
  // Only alpha's nonzero rows (alpha_nz, ascending) enter the ratio test,
  // the x_B update and the eta: a zero alpha never blocks, ascending order
  // keeps every tie-break, Bland's included, and the skipped
  // xb - theta * (+-0) could only flip the sign of a zero x_B, which every
  // reader below (comparisons, std::max(0.0, .)) ignores.
  auto run_phase = [&](int& iteration_counter) -> SolveStatus {
    int degenerate_streak = 0;
    for (int i = 0; i < m; ++i)
      cost_b[static_cast<std::size_t>(i)] =
          t.cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
    // Partial (cyclic) pricing: scan a window of columns per iteration,
    // remembering where we stopped. A full fruitless sweep proves
    // optimality. Bland mode scans from column 0 instead.
    int scan_cursor = 0;
    const int window = std::max(512, t.n_total / 16);

    while (true) {
      std::copy(cost_b.begin(), cost_b.end(), y.begin());
      if (iteration_counter >= options.max_iterations) return SolveStatus::kIterationLimit;

      // BTRAN: y = B^{-T} c_B.
      lu.btran(y);

      // Pricing.
      const bool use_bland = degenerate_streak >= options.bland_trigger;
      int entering = -1;
      double best_dj = -options.optimality_tol;
      int cursor = use_bland ? 0 : scan_cursor;
      for (int scanned = 0; scanned < t.n_total && entering < 0;) {
        const int stop = use_bland ? t.n_total : std::min(cursor + window, t.n_total);
        for (int j = cursor; j < stop; ++j) {
          if (blocked[static_cast<std::size_t>(j)]) continue;
          const double dj = t.cost[static_cast<std::size_t>(j)] - t.a.dot_column(j, y);
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
      if (entering < 0) return SolveStatus::kOptimal;

      const std::span<const int> nonzeros = ftran_column(entering);

      // Ratio test: the incumbent is replaced only on a ratio smaller by
      // more than feasibility_tol (Bland: or a near-tie with a lower basic
      // column index). A basic falling to zero blocks, and so does a basic
      // artificial rising above zero: it is fixed at [0, 0].
      int leaving = -1;
      double theta = std::numeric_limits<double>::infinity();
      for (const int i : nonzeros) {
        const auto ui = static_cast<std::size_t>(i);
        const double ai = alpha[ui];
        double ratio;
        if (ai > options.pivot_tol) {
          ratio = std::max(0.0, xb[ui]) / ai;
        } else if (ai < -options.pivot_tol && t.artificial[static_cast<std::size_t>(basis[ui])]) {
          ratio = std::max(0.0, -xb[ui]) / -ai;
        } else {
          continue;
        }
        if (ratio < theta - options.feasibility_tol ||
            (use_bland && ratio < theta + options.feasibility_tol && leaving >= 0 &&
             basis[static_cast<std::size_t>(i)] < basis[static_cast<std::size_t>(leaving)])) {
          theta = ratio;
          leaving = i;
        }
      }
      if (leaving < 0) return SolveStatus::kUnbounded;

      // Stall accounting feeds both the anti-cycling rule and the surfaced
      // counters.
      if (use_bland) ++sol.bland_pivots;
      if (theta <= options.feasibility_tol) {
        ++sol.stall_pivots;
        ++degenerate_streak;
      } else {
        degenerate_streak = 0;
      }

      cost_b[static_cast<std::size_t>(leaving)] = t.cost[static_cast<std::size_t>(entering)];
      ++iteration_counter;
      if (!pivot(leaving, entering, theta, nonzeros))
        return SolveStatus::kNumericalFailure;
    }
  };

  // Primal infeasibility of basic row i with artificials fixed at zero:
  // negative below the lower bound, positive above an artificial's upper
  // bound, 0 within tolerance.
  const auto infeasibility = [&](int i) {
    const double v = xb[static_cast<std::size_t>(i)];
    if (v < -options.feasibility_tol) return v;
    if (v > kArtificialTol &&
        t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])])
      return v;
    return 0.0;
  };

  // The dual phase: dual simplex from a primal-infeasible seed, with
  // artificials treated as fixed variables [0, 0]. A basic value below zero
  // violates its lower bound, a hot artificial its upper bound; a nonbasic
  // artificial never enters. Nonbasic columns priced negative are made dual
  // feasible by shifting their cost, and every enterable cost is perturbed
  // (`cost` below is t.cost plus the shifts and perturbations, and exists
  // only inside this phase); phase 2, which prices with t.cost, removes
  // them again.
  //
  // Per pivot: the leaving row r by dual Devex pricing (infeasibility^2 /
  // w_r, unit reference weights; Harris 1973, Forrest & Goldfarb 1992),
  // rho = B^{-T} e_r, the pivot row alpha_r from the row-wise copy of A
  // over rho's nonzero rows only, a Harris two-pass ratio test that takes
  // the largest |alpha_rj| among near-ties, and the reduced-cost update
  // along alpha_r. Reduced costs are recomputed from scratch at each
  // refactorization. Dual steepest edge, whose exact weights would cost
  // one BTRAN per row at seeding, measured worse with unit initial weights
  // than Devex: more pivots on perfbench `steady` (435 against 348 per
  // replan) and 4-8x more on infeasible seeds, plus an FTRAN per pivot.
  //
  // Returns kOptimal once the basis is primal-feasible, kInfeasible when a
  // leaving row admits no entering column and rho checks out as a Farkas
  // ray, and kNumericalFailure / kIterationLimit otherwise.
  auto run_dual = [&](int cap, int& iteration_counter) -> SolveStatus {
    const SparseMatrix rows = t.a.transpose();
    const auto n = static_cast<std::size_t>(t.n_total);
    std::vector<double> cost = t.cost;
    std::vector<double> d(n, 0.0);
    std::vector<double> weight(static_cast<std::size_t>(m), 1.0);
    std::vector<double> rho(static_cast<std::size_t>(m));
    std::vector<int> rho_nz;
    std::vector<double> row(n, 0.0);
    std::vector<char> in_row(n, 0);
    std::vector<int> row_nz;
    // Pricing candidates: every infeasible row is listed (rows that turned
    // feasible may linger until pricing meets them). Rebuilt from x_B at
    // each refactorization; a pivot can make infeasible only the rows
    // whose x_B it moves, alpha's nonzeros and the leaving row.
    std::vector<int> candidates;
    std::vector<char> is_candidate(static_cast<std::size_t>(m), 0);
    const auto add_candidate = [&](int i) {
      if (is_candidate[static_cast<std::size_t>(i)]) return;
      is_candidate[static_cast<std::size_t>(i)] = 1;
      candidates.push_back(i);
    };
    const auto collect_candidates = [&] {
      for (const int i : candidates) is_candidate[static_cast<std::size_t>(i)] = 0;
      candidates.clear();
      for (int i = 0; i < m; ++i)
        if (infeasibility(i) != 0.0) add_candidate(i);
    };

    // d = c - A^T B^{-T} c_B over the enterable columns, each negative one
    // shifted to zero.
    const auto shift = [&](std::size_t j) {
      if (d[j] < 0.0) {
        cost[j] -= d[j];
        d[j] = 0.0;
      }
    };
    const auto price_all = [&] {
      for (int i = 0; i < m; ++i)
        y[static_cast<std::size_t>(i)] =
            cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
      lu.btran(y);
      for (int j = 0; j < t.n_total; ++j) {
        const auto uj = static_cast<std::size_t>(j);
        if (blocked[uj]) continue;
        d[uj] = cost[uj] - t.a.dot_column(j, y);
        shift(uj);
      }
    };
    // rho is a Farkas ray when, signed by `dir`, rho^T b is negative while
    // rho^T a_j is nonnegative on every column that is not fixed at zero:
    // no x >= 0 then satisfies rho^T A x = rho^T b.
    const auto certifies_infeasible = [&](double dir) {
      double rb = 0.0;
      for (int i = 0; i < m; ++i)
        rb += rho[static_cast<std::size_t>(i)] * t.rhs[static_cast<std::size_t>(i)];
      if (-dir * rb >= -kArtificialTol) return false;
      for (int j = 0; j < t.n_total; ++j)
        if (!t.artificial[static_cast<std::size_t>(j)] &&
            -dir * t.a.dot_column(j, rho) < -options.pivot_tol)
          return false;
      return true;
    };

    // Seed: shift the dual infeasibilities away, then perturb every
    // enterable cost upwards so that ties among zero reduced costs do not
    // stall the dual objective.
    price_all();
    for (int j = 0; j < t.n_total; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      if (blocked[uj]) continue;
      const double eps = kDualPerturbation * (1.0 + std::abs(t.cost[uj])) * (1.0 + tie_breaker(j));
      cost[uj] += eps;
      d[uj] += eps;
    }
    collect_candidates();
    while (true) {
      // Pricing: dual Devex over the infeasible rows, dropping the
      // candidates found feasible. Equal scores keep the lowest row, the
      // one an ascending scan of all rows would pick.
      int r = -1;
      double best = 0.0;
      for (std::size_t c = 0; c < candidates.size();) {
        const int i = candidates[c];
        const double infeas = infeasibility(i);
        if (infeas == 0.0) {
          is_candidate[static_cast<std::size_t>(i)] = 0;
          candidates[c] = candidates.back();
          candidates.pop_back();
          continue;
        }
        const double score = infeas * infeas / weight[static_cast<std::size_t>(i)];
        if (score > best || (score == best && i < r)) {
          best = score;
          r = i;
        }
        ++c;
      }
      if (r < 0) return SolveStatus::kOptimal;
      if (iteration_counter >= cap) return SolveStatus::kIterationLimit;
      const auto ur = static_cast<std::size_t>(r);
      // The sign alpha_rq must have: x_r falls to 0 when above it, rises
      // when below.
      const double dir = xb[ur] > 0.0 ? 1.0 : -1.0;

      // rho = B^{-T} e_r, and the pivot row over the enterable columns.
      for (const int i : rho_nz) rho[static_cast<std::size_t>(i)] = 0.0;
      rho_nz.assign(1, r);
      rho[ur] = 1.0;
      lu.btran(rho, rho_nz);
      row_nz.clear();
      for (const int i : rho_nz) {
        const double ri = rho[static_cast<std::size_t>(i)];
        for (int k = rows.col_begin(i); k < rows.col_end(i); ++k) {
          const auto j = static_cast<std::size_t>(rows.row_index(k));
          if (blocked[j]) continue;
          if (!in_row[j]) {
            in_row[j] = 1;
            row_nz.push_back(static_cast<int>(j));
          }
          row[j] += ri * rows.value(k);
        }
      }

      // Harris ratio test. Pass 1 bounds the step with every reduced cost
      // relaxed by optimality_tol; pass 2 takes, among the columns within
      // that bound, the largest |alpha_rj| (lowest column on ties).
      double bound = std::numeric_limits<double>::infinity();
      for (const int j : row_nz) {
        const double a = dir * row[static_cast<std::size_t>(j)];
        if (a > options.pivot_tol)
          bound = std::min(bound, (d[static_cast<std::size_t>(j)] + options.optimality_tol) / a);
      }
      int entering = -1;
      double entering_a = 0.0;
      for (const int j : row_nz) {
        const double a = dir * row[static_cast<std::size_t>(j)];
        if (a > options.pivot_tol && d[static_cast<std::size_t>(j)] / a <= bound &&
            (a > entering_a || (a == entering_a && j < entering))) {
          entering = j;
          entering_a = a;
        }
      }
      if (entering < 0)
        return certifies_infeasible(dir) ? SolveStatus::kInfeasible
                                         : SolveStatus::kNumericalFailure;

      const std::span<const int> nonzeros = ftran_column(entering);
      const double alpha_r = alpha[ur];
      if (dir * alpha_r <= options.pivot_tol) return SolveStatus::kNumericalFailure;

      // Reduced costs along the pivot row; a column the Harris bound let
      // slip below zero is shifted back to it.
      const auto uq = static_cast<std::size_t>(entering);
      const double theta_d = d[uq] / row[uq];
      for (const int j : row_nz) {
        const auto uj = static_cast<std::size_t>(j);
        d[uj] -= theta_d * row[uj];
        shift(uj);
        row[uj] = 0.0;
        in_row[uj] = 0;
      }
      d[static_cast<std::size_t>(basis[ur])] = -theta_d;
      d[uq] = 0.0;

      // Dual Devex weights: each row's weight only grows, by the pivot
      // row's weight scaled by (alpha_iq / alpha_rq)^2.
      const double w_r = weight[ur];
      for (const int i : nonzeros) {
        if (i == r) continue;
        const auto ui = static_cast<std::size_t>(i);
        const double ratio = alpha[ui] / alpha_r;
        weight[ui] = std::max(weight[ui], ratio * ratio * w_r);
      }
      weight[ur] = std::max(w_r / (alpha_r * alpha_r), 1.0);

      ++iteration_counter;
      const int eta_before = lu.eta_count();
      if (!pivot(r, entering, xb[ur] / alpha_r, nonzeros))
        return SolveStatus::kNumericalFailure;
      if (lu.eta_count() <= eta_before) {  // refactorized
        price_all();
        collect_candidates();
      } else {
        for (const int i : nonzeros) add_candidate(i);
        add_candidate(r);
      }
    }
  };

  // ---- The dual phase. A primal-feasible seed skips straight to phase 2.
  // Any other is repaired by the dual phase: the cold basis with its hot
  // artificials (every row whose slack cannot hold the rhs), or a warm seed
  // with hot artificials (rows the transfer never covered, e.g. the fresh
  // tail of a rolling horizon) or negative basics (rhs drift: a capacity
  // cut, a drained DC, a link-peak variable below the shifted window's new
  // peak). A cold dual phase runs up to max_iterations, a warm one at most
  // 2m + 100 pivots. A dual phase that certifies infeasibility ends the
  // solve; any other warm failure falls back cold.
  bool damaged = false;
  for (int i = 0; i < m && !damaged; ++i) damaged = infeasibility(i) != 0.0;
  if (damaged) {
    const auto p1_start = std::chrono::steady_clock::now();
    const int cap = warm ? std::min(options.max_iterations, 2 * m + 100) : options.max_iterations;
    const SolveStatus s1 = run_dual(cap, sol.phase1_iterations);
    sol.phase1_seconds += seconds_since(p1_start);
    sol.iterations += sol.phase1_iterations;
    if (s1 != SolveStatus::kOptimal) {
      sol.status = warm && s1 != SolveStatus::kInfeasible ? SolveStatus::kNumericalFailure : s1;
      return sol;
    }
  }

  // ---- Phase 2.
  int phase2_iters = 0;
  const auto p2_start = std::chrono::steady_clock::now();
  const SolveStatus s2 = run_phase(phase2_iters);
  sol.phase2_seconds += seconds_since(p2_start);
  sol.iterations += phase2_iters;
  if (s2 != SolveStatus::kOptimal) {
    sol.status = s2;
    return sol;
  }

  // Phase 2's ratio test holds a basic artificial at zero, so one above
  // kArtificialTol here is a numerical fault, and the "optimal" point
  // would violate the artificial's row. Refuse to report such a point: a
  // warm solve falls back to the cold path, a cold solve fails loudly
  // rather than hand the caller a plan that silently under-serves a row.
  for (int i = 0; i < m; ++i) {
    if (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] &&
        xb[static_cast<std::size_t>(i)] > kArtificialTol) {
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
    // unblocks a previously-masked dependency. A probe that factorizes is
    // the solve's first factorization.
    SeedFactorization probe;
    bool factored = false;
    for (int round = 0; round < 2; ++round) {
      BasisLu::Deficiency def;
      const auto f0 = std::chrono::steady_clock::now();
      factored = probe.lu.factorize(t.a, *mapped, options.pivot_tol, &def);
      probe.seconds = seconds_since(f0);
      if (factored || !def.any()) break;
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
    sol = solve_from(model, t, std::move(*mapped), /*warm=*/true, options,
                     factored ? &probe : nullptr);
  }
  // Any warm failure — unmappable basis, singular factorization, a dual
  // phase out of pivots, or numerical trouble mid-phase — falls back to the
  // cold path, reusing the tableau already built above. The failed
  // attempt's pivots are counted, not dropped with its Solution.
  if (sol.status == SolveStatus::kNumericalFailure) {
    const int discarded = sol.iterations;
    const double discarded_seconds = seconds_since(t_start);
    sol = solve_from(model, t, cold_basis(t, m), /*warm=*/false, options);
    sol.fallback_pivots = discarded;
    sol.fallback_seconds = discarded_seconds;
    sol.solve_seconds = seconds_since(t_start);
    return sol;
  }
  sol.solve_seconds = seconds_since(t_start);
  return sol;
}

}  // namespace titan::lp
