#include "titannext/lp_builder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>

namespace titan::titannext {

namespace {

// Variable layout: X vars first, y vars after.
//   x_index(t, c, m, p) = ((t * C + c) * M + m) * 2 + p
// with p: 0 = WAN, 1 = Internet.
struct Layout {
  int timeslots, configs, dcs;
  [[nodiscard]] int x(int t, int c, int m, int p) const {
    return ((t * configs + c) * dcs + m) * 2 + p;
  }
  [[nodiscard]] int num_x() const { return timeslots * configs * dcs * 2; }
};

// Link id -> position in a link list, -1 for a link outside it: a flat
// table over the ids up to the list's largest.
class LinkIndex {
 public:
  explicit LinkIndex(const std::vector<core::LinkId>& links) {
    int size = 0;
    for (const auto l : links) size = std::max(size, l.value() + 1);
    pos_.assign(static_cast<std::size_t>(size), -1);
    for (std::size_t l = 0; l < links.size(); ++l)
      pos_[static_cast<std::size_t>(links[l].value())] = static_cast<int>(l);
  }
  [[nodiscard]] int operator()(core::LinkId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < pos_.size() ? pos_[v] : -1;
  }

 private:
  std::vector<int> pos_;
};

// Row layout mirror of build_model's construction order: C1 demand rows
// (slot-major, config inner), C2 compute rows, C3 Internet rows, the single
// optional C4 e2e row, then C5 per-(slot, link) peak rows. remap_basis
// depends on this matching build_model exactly — extend both together.
struct RowLayout {
  int timeslots, configs, dcs, links;
  bool e2e;
  [[nodiscard]] int c1(int t, int c) const { return t * configs + c; }
  [[nodiscard]] int c2(int t, int m) const { return timeslots * configs + t * dcs + m; }
  [[nodiscard]] int c3(int t, int m) const {
    return timeslots * (configs + dcs) + t * dcs + m;
  }
  [[nodiscard]] int e2e_row() const { return timeslots * (configs + 2 * dcs); }
  [[nodiscard]] int c5(int t, int l) const {
    return timeslots * (configs + 2 * dcs) + (e2e ? 1 : 0) + t * links + l;
  }
  [[nodiscard]] int rows() const {
    return timeslots * (configs + 2 * dcs) + (e2e ? 1 : 0) + timeslots * links;
  }
};

// Whether build_model will emit the C4 row for these inputs.
bool has_e2e_row(const PlanInputs& inputs, const LpBuildOptions& options) {
  if (options.e2e_bound_ms <= 0.0) return false;
  double total_units = 0.0;
  for (const auto& d : inputs.demands()) total_units += d.total_units;
  return total_units > 0.0;
}

// Per-link peak over the slots of a plan's use.
std::vector<double> link_peaks(const PlanUse& use) {
  std::vector<double> peak(use.links.size(), 0.0);
  for (const auto& slot : use.link)
    for (std::size_t l = 0; l < peak.size(); ++l) peak[l] = std::max(peak[l], slot[l]);
  return peak;
}

}  // namespace

lp::LpModel build_model(const PlanInputs& inputs, const LpBuildOptions& options,
                        const PlanUse* committed) {
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const auto& links = committed != nullptr ? committed->links : inputs.links();
  const Layout lay{inputs.scope().timeslots, static_cast<int>(demands.size()),
                   static_cast<int>(dcs.size())};
  const bool e2e = has_e2e_row(inputs, options);
  // Per (c, m, p) latencies, each evaluated once: the objective's and the
  // C4 row's coefficients of every slot's x(t, c, m, p).
  const auto cm = [&](int c, int m) { return static_cast<std::size_t>(c * lay.dcs + m); };
  std::vector<double> cost(static_cast<std::size_t>(lay.configs * lay.dcs * 2), 0.0);
  std::vector<double> e2e_ms(e2e ? cost.size() : 0);
  for (int c = 0; c < lay.configs; ++c)
    for (int m = 0; m < lay.dcs; ++m)
      for (int p = 0; p < 2; ++p) {
        const auto& config = demands[static_cast<std::size_t>(c)].config;
        const core::DcId dc = dcs[static_cast<std::size_t>(m)];
        const auto path = p == 0 ? net::PathType::kWan : net::PathType::kInternet;
        const std::size_t k = cm(c, m) * 2 + static_cast<std::size_t>(p);
        if (options.objective == Objective::kMinimizeTotalLatency)
          cost[k] = inputs.total_latency_ms(config, dc, path);
        else if (options.objective == Objective::kMinimizeTotalMaxE2e)
          cost[k] = inputs.max_e2e_ms(config, dc, path);
        if (e2e) e2e_ms[k] = inputs.max_e2e_ms(config, dc, path);
      }

  lp::LpModel model;
  // X variables (objective coefficients depend on the variant).
  for (int t = 0; t < lay.timeslots; ++t)
    for (const double c : cost) model.add_variable(c);
  // y variables (peak per link) — only part of the objective for the
  // Titan-Next variant; harmless otherwise (cost 0 keeps them defined).
  std::vector<int> yvar(links.size());
  for (std::size_t l = 0; l < links.size(); ++l)
    yvar[l] = model.add_variable(options.objective == Objective::kMinimizeWanPeaks ? 1.0 : 0.0);

  // The WAN users of each link: the (c, m) pairs whose WAN path loads it,
  // with the Mbps one assigned unit puts on it (summed over participants
  // in participant order), listed in (c, m) order — the order of each C5
  // row's coefficients.
  struct LinkUser {
    int c, m;
    double mbps;
  };
  std::vector<std::vector<LinkUser>> users(links.size());
  {
    const LinkIndex link_index(links);
    std::vector<double> acc(links.size(), 0.0);
    std::vector<char> in_touched(links.size(), 0);
    std::vector<int> touched;
    for (int c = 0; c < lay.configs; ++c) {
      const auto& config = demands[static_cast<std::size_t>(c)].config;
      for (int m = 0; m < lay.dcs; ++m) {
        for (const auto& [country, count] : config.participants) {
          const double bw = config.network_mbps_from(country);
          const auto& path =
              inputs.net().topology().path(country, dcs[static_cast<std::size_t>(m)]);
          for (const auto lid : path.links) {
            const int l = link_index(lid);
            if (l < 0) continue;
            if (!in_touched[static_cast<std::size_t>(l)]) {
              in_touched[static_cast<std::size_t>(l)] = 1;
              touched.push_back(l);
            }
            acc[static_cast<std::size_t>(l)] += bw;
          }
        }
        for (const int l : touched) {
          users[static_cast<std::size_t>(l)].push_back({c, m, acc[static_cast<std::size_t>(l)]});
          acc[static_cast<std::size_t>(l)] = 0.0;
          in_touched[static_cast<std::size_t>(l)] = 0;
        }
        touched.clear();
      }
    }
  }

  // C1: all calls of each (t, c) assigned.
  for (int t = 0; t < lay.timeslots; ++t)
    for (int c = 0; c < lay.configs; ++c) {
      const double n =
          demands[static_cast<std::size_t>(c)].units_per_slot[static_cast<std::size_t>(t)];
      const int row = model.add_constraint(lp::Sense::kEq, n);
      for (int m = 0; m < lay.dcs; ++m)
        for (int p = 0; p < 2; ++p) model.add_coefficient(row, lay.x(t, c, m, p), 1.0);
    }

  // C2: MP compute per (t, m), net of the committed use.
  for (int t = 0; t < lay.timeslots; ++t)
    for (int m = 0; m < lay.dcs; ++m) {
      double cap = inputs.dc_capacity(dcs[static_cast<std::size_t>(m)]);
      if (committed != nullptr)
        cap = std::max(0.0, cap - committed->compute[static_cast<std::size_t>(t)]
                                                   [static_cast<std::size_t>(m)]);
      const int row = model.add_constraint(lp::Sense::kLe, cap);
      for (int c = 0; c < lay.configs; ++c) {
        const double cores = demands[static_cast<std::size_t>(c)].config.compute_cores();
        for (int p = 0; p < 2; ++p)
          model.add_coefficient(row, lay.x(t, c, m, p), cores);
      }
    }

  // C3: Internet path capacity per (t, m), net of the committed use.
  for (int t = 0; t < lay.timeslots; ++t)
    for (int m = 0; m < lay.dcs; ++m) {
      double cap = inputs.internet_capacity(dcs[static_cast<std::size_t>(m)]);
      if (committed != nullptr)
        cap = std::max(0.0, cap - committed->internet[static_cast<std::size_t>(t)]
                                                   [static_cast<std::size_t>(m)]);
      const int row = model.add_constraint(lp::Sense::kLe, cap);
      for (int c = 0; c < lay.configs; ++c)
        model.add_coefficient(row, lay.x(t, c, m, 1),
                              demands[static_cast<std::size_t>(c)].config.network_mbps());
    }

  // C4: bound on the demand-weighted average of max-E2E latency. The
  // presence condition is shared with remap_basis through has_e2e_row so
  // the row layouts cannot drift apart.
  if (e2e) {
    double total_units = 0.0;
    for (const auto& d : demands) total_units += d.total_units;
    const int row = model.add_constraint(lp::Sense::kLe, options.e2e_bound_ms * total_units);
    for (int t = 0; t < lay.timeslots; ++t)
      for (std::size_t k = 0; k < e2e_ms.size(); ++k)
        model.add_coefficient(row, lay.x(t, 0, 0, 0) + static_cast<int>(k), e2e_ms[k]);
  }

  // C5: per-link peak definition, y_l >= slot WAN usage. Against committed
  // use, y_l is the growth above the link's committed peak.
  const std::vector<double> peak = committed ? link_peaks(*committed) : std::vector<double>{};
  for (int t = 0; t < lay.timeslots; ++t)
    for (std::size_t l = 0; l < links.size(); ++l) {
      const int row = model.add_constraint(
          lp::Sense::kLe,
          committed ? std::max(0.0, peak[l] - committed->link[static_cast<std::size_t>(t)][l])
                    : 0.0);
      for (const auto& u : users[l]) model.add_coefficient(row, lay.x(t, u.c, u.m, 0), u.mbps);
      model.add_coefficient(row, yvar[l], -1.0);
    }

  return model;
}

std::optional<lp::Basis> remap_basis(const PlanBasisContext& prev, const PlanInputs& inputs,
                                     const LpBuildOptions& options, int shift_slots) {
  if (!prev.valid() || prev.timeslots != inputs.scope().timeslots) return std::nullopt;
  // The windows must overlap: slot t of the old horizon is slot t - shift
  // of the new one, so shift >= T means nothing transfers (and a negative
  // shift would mean time ran backwards — a caller bug; refuse).
  if (shift_slots < 0 || shift_slots >= prev.timeslots) return std::nullopt;
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const auto& links = inputs.links();
  const int T = prev.timeslots;
  const int c_old = static_cast<int>(prev.shapes.size());
  const int m_old = static_cast<int>(prev.dcs.size());
  const int l_old = static_cast<int>(prev.links.size());
  if (c_old == 0 || m_old == 0) return std::nullopt;

  const Layout old_lay{T, c_old, m_old};
  const Layout new_lay{T, static_cast<int>(demands.size()), static_cast<int>(dcs.size())};
  const RowLayout old_rows{T, c_old, m_old, l_old, prev.e2e_row};
  const RowLayout new_rows{T, new_lay.configs, new_lay.dcs, static_cast<int>(links.size()),
                           has_e2e_row(inputs, options)};
  if (static_cast<int>(prev.basis.entries.size()) != old_rows.rows()) return std::nullopt;

  // Label translation tables old index -> new index (-1 = label vanished).
  std::vector<int> shape_map(static_cast<std::size_t>(c_old), -1);
  for (int c = 0; c < c_old; ++c)
    shape_map[static_cast<std::size_t>(c)] =
        inputs.demand_index(prev.shapes[static_cast<std::size_t>(c)]);
  std::vector<int> dc_map(static_cast<std::size_t>(m_old), -1);
  for (int m = 0; m < m_old; ++m)
    for (std::size_t i = 0; i < dcs.size(); ++i)
      if (dcs[i] == prev.dcs[static_cast<std::size_t>(m)]) {
        dc_map[static_cast<std::size_t>(m)] = static_cast<int>(i);
        break;
      }
  const LinkIndex link_index(links);
  const auto map_link = [&](int l) { return link_index(prev.links[static_cast<std::size_t>(l)]); };

  // Horizon-relative slot translation: old slot t is new slot t - shift;
  // slots before the new window vanish.
  const auto map_slot = [&](int t) { return t - shift_slots; };

  // Old row index -> new row index by label (-1 = vanished).
  const auto map_row = [&](int r) -> int {
    if (r < 0 || r >= old_rows.rows()) return -1;
    if (r < T * c_old) {
      const int t = map_slot(r / c_old);
      const int c = shape_map[static_cast<std::size_t>(r % c_old)];
      return (t < 0 || c < 0) ? -1 : new_rows.c1(t, c);
    }
    r -= T * c_old;
    if (r < 2 * T * m_old) {
      const bool internet = r >= T * m_old;
      if (internet) r -= T * m_old;
      const int t = map_slot(r / m_old);
      const int m = dc_map[static_cast<std::size_t>(r % m_old)];
      if (t < 0 || m < 0) return -1;
      return internet ? new_rows.c3(t, m) : new_rows.c2(t, m);
    }
    r -= 2 * T * m_old;
    if (prev.e2e_row && r == 0) return new_rows.e2e ? new_rows.e2e_row() : -1;
    if (prev.e2e_row) r -= 1;
    const int t = map_slot(r / l_old);
    const int l = map_link(r % l_old);
    return (t < 0 || l < 0) ? -1 : new_rows.c5(t, l);
  };

  // Translate every surviving entry; collect the set of claimed rows so the
  // completion step below can fill the holes with slacks/artificials.
  std::vector<lp::BasisEntry> mapped;
  mapped.reserve(prev.basis.entries.size());
  // Duplicates guard: one flag per new structural column, and per new row
  // for its slack and its artificial.
  std::vector<char> column_seen(static_cast<std::size_t>(new_lay.num_x()) + links.size(), 0);
  std::vector<char> unit_seen(2 * static_cast<std::size_t>(new_rows.rows()), 0);
  std::vector<bool> row_claimed(static_cast<std::size_t>(new_rows.rows()), false);
  const int num_x_old = old_lay.num_x();
  for (const auto& e : prev.basis.entries) {
    lp::BasisEntry out = e;
    if (e.kind == lp::BasisEntry::Kind::kStructural) {
      if (e.index < num_x_old) {
        int rest = e.index;
        const int p = rest % 2;
        rest /= 2;
        const int m = dc_map[static_cast<std::size_t>(rest % m_old)];
        rest /= m_old;
        const int c = shape_map[static_cast<std::size_t>(rest % c_old)];
        const int t = map_slot(rest / c_old);
        if (t < 0 || c < 0 || m < 0) continue;
        out.index = new_lay.x(t, c, m, p);
      } else {
        if (e.index >= num_x_old + l_old) return std::nullopt;  // corrupt snapshot
        const int l = map_link(e.index - num_x_old);
        if (l < 0) continue;
        out.index = new_lay.num_x() + l;
      }
    } else {
      const int r = map_row(e.index);
      if (r < 0) continue;
      out.index = r;
      row_claimed[static_cast<std::size_t>(r)] = true;
    }
    char& seen = out.kind == lp::BasisEntry::Kind::kStructural
                     ? column_seen[static_cast<std::size_t>(out.index)]
                     : unit_seen[2 * static_cast<std::size_t>(out.index) +
                                 (out.kind == lp::BasisEntry::Kind::kSlack ? 0 : 1)];
    if (seen) return std::nullopt;
    seen = 1;
    mapped.push_back(out);
  }


  // Completion: the dropped entries' columns pivoted rows that either
  // vanished with them (balanced — nothing to do) or still exist and now
  // need a unit column. The rows that *demonstrably* lost their pivot are
  // the fresh-label ones — C1 rows of shapes the old plan never had (their
  // serving columns were never basic) and C5 rows of links no old path used
  // (no survivor touches them, so they would be all-zero in the basis).
  // Fill those first; top up any remaining budget over unclaimed rows in
  // row order. C1 rows are equalities (artificial — basic at the row's
  // demand, a hot artificial the dual phase of lp::solve drives out),
  // everything else is <= (slack).
  std::vector<bool> label_is_fresh(static_cast<std::size_t>(new_rows.rows()), true);
  for (int r = 0; r < old_rows.rows(); ++r) {
    const int nr = map_row(r);
    if (nr >= 0) label_is_fresh[static_cast<std::size_t>(nr)] = false;
  }
  int fresh_unclaimed = 0;
  for (int r = 0; r < new_rows.rows(); ++r)
    if (label_is_fresh[static_cast<std::size_t>(r)] && !row_claimed[static_cast<std::size_t>(r)])
      ++fresh_unclaimed;
  // Make room: every fresh row *must* get its unit column, so when the
  // survivors plus the fresh fills would overflow the row count, trim
  // survivors from the back (freed slack/artificial rows rejoin the
  // fillable pool; the structural-rank repair in lp::solve re-seats
  // whatever the trim destabilized).
  const int budget = new_rows.rows() - fresh_unclaimed;
  if (budget < 0) return std::nullopt;
  while (static_cast<int>(mapped.size()) > budget) {
    const lp::BasisEntry& victim = mapped.back();
    if (victim.kind != lp::BasisEntry::Kind::kStructural)
      row_claimed[static_cast<std::size_t>(victim.index)] = false;
    mapped.pop_back();
  }
  const auto fill_row = [&](int r) {
    lp::BasisEntry fill;
    fill.kind = r < T * new_lay.configs ? lp::BasisEntry::Kind::kArtificial
                                        : lp::BasisEntry::Kind::kSlack;
    fill.index = r;
    mapped.push_back(fill);
    row_claimed[static_cast<std::size_t>(r)] = true;
  };
  for (int r = 0; r < new_rows.rows(); ++r)
    if (label_is_fresh[static_cast<std::size_t>(r)] && !row_claimed[static_cast<std::size_t>(r)])
      fill_row(r);
  for (int r = 0; r < new_rows.rows() && static_cast<int>(mapped.size()) < new_rows.rows();
       ++r)
    if (!row_claimed[static_cast<std::size_t>(r)]) fill_row(r);
  if (static_cast<int>(mapped.size()) != new_rows.rows()) return std::nullopt;
  return lp::Basis{std::move(mapped)};
}

namespace {

// Per-slot compute, Internet and WAN link use of a plan's weights over the
// inputs' DCs and links, summed in (t, c, entry) order.
PlanUse plan_use(const PlanInputs& inputs,
                 const std::vector<std::vector<AssignmentWeights>>& weights) {
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const auto& links = inputs.links();
  const LinkIndex link_index(links);
  const auto zeros = [&](std::size_t n) {
    return std::vector<std::vector<double>>(weights.size(), std::vector<double>(n, 0.0));
  };
  PlanUse use{links, zeros(dcs.size()), zeros(dcs.size()), zeros(links.size())};
  for (std::size_t t = 0; t < weights.size(); ++t)
    for (std::size_t c = 0; c < weights[t].size(); ++c) {
      const auto& config = demands[c].config;
      for (const auto& e : weights[t][c].entries) {
        const auto m = static_cast<std::size_t>(std::ranges::find(dcs, e.dc) - dcs.begin());
        use.compute[t][m] += e.units * config.compute_cores();
        if (e.path == net::PathType::kInternet) {
          use.internet[t][m] += e.units * config.network_mbps();
          continue;
        }
        for (const auto& [country, count] : config.participants) {
          const double bw = config.network_mbps_from(country) * e.units;
          for (const auto lid : inputs.net().topology().path(country, e.dc).links) {
            const int l = link_index(lid);
            if (l >= 0) use.link[t][static_cast<std::size_t>(l)] += bw;
          }
        }
      }
    }
  return use;
}

// Realized sum over links of peak WAN bandwidth of a fractional plan —
// recomputed from the weights (not the LP objective) so whole-scope and
// decomposed solves report the same physical quantity.
double sum_wan_peaks(const PlanInputs& inputs,
                     const std::vector<std::vector<AssignmentWeights>>& weights) {
  double sum = 0.0;
  for (const double p : link_peaks(plan_use(inputs, weights))) sum += p;
  return sum;
}

// Snapshots a solved model's identity + basis into a warm context for the
// next replan of the same (sub)scope.
void snapshot_context(PlanBasisContext& ctx, const PlanInputs& inputs,
                      const LpBuildOptions& options, const lp::Solution& sol,
                      core::SlotIndex plan_begin) {
  ctx.basis = sol.basis;
  ctx.shapes.clear();
  ctx.shapes.reserve(inputs.demands().size());
  for (const auto& d : inputs.demands()) ctx.shapes.push_back(d.config);
  ctx.dcs = inputs.dcs();
  ctx.links = inputs.links();
  ctx.timeslots = inputs.scope().timeslots;
  ctx.e2e_row = has_e2e_row(inputs, options);
  ctx.plan_begin = plan_begin;
}

// The one plan-LP step: builds the LP over `part` (`parent` itself or a
// restriction of it), seeds it from `ctx` when given, solves it, snapshots
// the basis back into `ctx`, and folds the solution into `result`'s
// weights (indexed like `parent`; sized on first use, so a failed
// whole-scope solve leaves them empty) and objective. The work is added to
// `result` whatever the status.
lp::SolveStatus solve_part(const PlanInputs& parent, const PlanInputs& part,
                           const LpBuildOptions& options, const PlanUse* committed,
                           PlanBasisContext* ctx, core::SlotIndex plan_begin,
                           LpPlanResult& result) {
  const auto build_start = std::chrono::steady_clock::now();
  const lp::LpModel model = build_model(part, options, committed);
  result.build_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  std::optional<lp::Basis> seed;
  if (ctx != nullptr) seed = remap_basis(*ctx, part, options, plan_begin - ctx->plan_begin);
  const lp::Solution sol =
      seed ? lp::solve(model, *seed, options.solver) : lp::solve(model, options.solver);
  result += sol;
  if (sol.status != lp::SolveStatus::kOptimal) return sol.status;
  if (ctx != nullptr) snapshot_context(*ctx, part, options, sol, plan_begin);

  result.objective += sol.objective;
  const auto& dcs = part.dcs();
  const Layout lay{part.scope().timeslots, static_cast<int>(part.demands().size()),
                   static_cast<int>(dcs.size())};
  if (result.weights.empty())
    result.weights.assign(static_cast<std::size_t>(lay.timeslots),
                          std::vector<AssignmentWeights>(parent.demands().size()));
  std::vector<std::size_t> to_parent;
  for (const auto& d : part.demands())
    to_parent.push_back(static_cast<std::size_t>(parent.demand_index(d.config)));
  for (int t = 0; t < lay.timeslots; ++t)
    for (int c = 0; c < lay.configs; ++c) {
      auto& w = result.weights[static_cast<std::size_t>(t)][to_parent[static_cast<std::size_t>(c)]];
      for (int m = 0; m < lay.dcs; ++m)
        for (int p = 0; p < 2; ++p) {
          const double units = sol.x[static_cast<std::size_t>(lay.x(t, c, m, p))];
          if (units > 1e-7)
            w.entries.push_back({dcs[static_cast<std::size_t>(m)],
                                 p == 0 ? net::PathType::kWan : net::PathType::kInternet,
                                 units});
        }
    }
  return lp::SolveStatus::kOptimal;
}

// One region block of the decomposition: parent-relative DC and demand
// indices, in parent order.
struct RegionBlock {
  geo::Continent continent;
  std::vector<int> dc_idx;
  std::vector<int> demand_idx;
};

// Block-angular decomposed solve: one part per region block, then one
// coupling part. Returns a non-optimal status on any gate failure —
// overlapping block link sets, a non-infeasible block failure, a failed
// coupling solve, a violated global e2e bound — and the caller discards it
// for the whole-scope solve. See docs/solver.md, "Region-block
// decomposition" for the contract this implements.
LpPlanResult solve_decomposed(const PlanInputs& inputs, const LpBuildOptions& options,
                              WarmStartCache* warm) {
  const auto& world = inputs.net().world();
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const int T = inputs.scope().timeslots;
  LpPlanResult result;
  if (demands.empty() || dcs.empty()) return result;
  // Sized up front: the coupling LP is built against the blocks' use even
  // when no block folded into it.
  result.weights.assign(static_cast<std::size_t>(T),
                        std::vector<AssignmentWeights>(demands.size()));

  // ---- Partition. A DC belongs to its continent's block; a demand is
  // homed to a block when every participant is on that block's continent
  // (and the block has DCs to serve it). Everything else — cross-region
  // demands, demands of DC-less blocks — goes to the coupling LP, which
  // sees every DC.
  std::vector<RegionBlock> blocks;
  for (const geo::Continent cont : inputs.scope().regions.continents()) {
    RegionBlock b;
    b.continent = cont;
    for (int m = 0; m < static_cast<int>(dcs.size()); ++m)
      if (world.dc(dcs[static_cast<std::size_t>(m)]).continent == cont) b.dc_idx.push_back(m);
    blocks.push_back(std::move(b));
  }
  std::vector<int> coupling;
  for (int c = 0; c < static_cast<int>(demands.size()); ++c) {
    const auto& participants = demands[static_cast<std::size_t>(c)].config.participants;
    bool homed = false;
    if (!participants.empty()) {
      const geo::Continent home = world.country(participants.front().first).continent;
      bool single = true;
      for (const auto& [country, count] : participants)
        if (world.country(country).continent != home) single = false;
      if (single)
        for (auto& b : blocks)
          if (b.continent == home && !b.dc_idx.empty()) {
            b.demand_idx.push_back(c);
            homed = true;
            break;
          }
    }
    if (!homed) coupling.push_back(c);
  }

  // Blocks and coupling solve the C4-free relaxation; the global bound is
  // verified on the composed plan below (a relaxation optimum that
  // satisfies the bound is optimal for the bounded problem too).
  LpBuildOptions relaxed = options;
  relaxed.e2e_bound_ms = -1.0;
  const core::SlotIndex plan_begin = warm != nullptr ? warm->next_plan_begin : 0;

  // Blocks must not share WAN links, or summing per-block peaks would
  // double-count a link's objective contribution.
  std::set<int> claimed_links;
  for (auto& b : blocks) {
    if (b.demand_idx.empty()) continue;
    const PlanInputs block_inputs = inputs.restricted(b.dc_idx, b.demand_idx);
    for (const auto l : block_inputs.links())
      if (!claimed_links.insert(l.value()).second) return result;
    PlanBasisContext* ctx = warm != nullptr ? &warm->blocks[b.continent] : nullptr;
    const lp::SolveStatus status =
        solve_part(inputs, block_inputs, relaxed, nullptr, ctx, plan_begin, result);
    if (status == lp::SolveStatus::kInfeasible) {
      // The block alone cannot serve its demands (e.g. its DCs are
      // drained). Promote them to the coupling LP, which sees every DC —
      // the load shifts cross-region exactly as the whole-scope LP would
      // shift it.
      for (const int c : b.demand_idx) coupling.push_back(c);
      if (ctx != nullptr) *ctx = PlanBasisContext{};
      continue;
    }
    if (status != lp::SolveStatus::kOptimal) return result;
    ++result.blocks_solved;
  }

  // ---- Coupling LP: the cross-region (and promoted) demands over every
  // DC, built against the blocks' committed use — residual capacities and
  // incremental peak rows over every parent link, so sum(block objectives)
  // + coupling objective prices the composed plan's true sum of peaks.
  if (!coupling.empty()) {
    std::sort(coupling.begin(), coupling.end());
    const PlanUse committed = plan_use(inputs, result.weights);
    std::vector<int> every_dc(dcs.size());
    std::iota(every_dc.begin(), every_dc.end(), 0);
    if (solve_part(inputs, inputs.restricted(every_dc, coupling), relaxed, &committed, nullptr,
                   plan_begin, result) != lp::SolveStatus::kOptimal)
      return result;
  }

  // ---- Global e2e bound (C4) on the composed plan. Satisfied means the
  // composition is feasible — and as good as the relaxation allows — for
  // the bounded problem; violated means block-local optima spent too much
  // latency.
  if (has_e2e_row(inputs, options)) {
    double lhs = 0.0;
    double total_units = 0.0;
    for (const auto& d : demands) total_units += d.total_units;
    for (int t = 0; t < T; ++t)
      for (std::size_t c = 0; c < demands.size(); ++c)
        for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries)
          lhs += e.units * inputs.max_e2e_ms(demands[c].config, e.dc, e.path);
    if (lhs > options.e2e_bound_ms * total_units * (1.0 + 1e-9) + 1e-6) return result;
  }

  result.status = lp::SolveStatus::kOptimal;
  result.sum_of_wan_peaks_mbps = sum_wan_peaks(inputs, result.weights);
  return result;
}

}  // namespace

PlanLpStats& PlanLpStats::operator+=(const PlanLpStats& o) {
  lp::SolveStats::operator+=(o);
  build_seconds += o.build_seconds;
  blocks_solved += o.blocks_solved;
  attempts += o.attempts;
  return *this;
}

LpPlanResult solve_plan(const PlanInputs& inputs, const LpBuildOptions& options,
                        WarmStartCache* warm) {
  LpPlanResult result;  // kNumericalFailure until a solve succeeds
  if (options.objective == Objective::kMinimizeWanPeaks && inputs.scope().regions.size() > 1)
    result = solve_decomposed(inputs, options, warm);
  if (result.status != lp::SolveStatus::kOptimal) {
    // The whole scope as one part. A discarded decomposed attempt's work
    // is counted, not dropped.
    const PlanLpStats discarded = result;
    result = LpPlanResult{};
    result.status = solve_part(inputs, inputs, options, nullptr,
                               warm != nullptr ? &warm->last : nullptr,
                               warm != nullptr ? warm->next_plan_begin : 0, result);
    if (result.status == lp::SolveStatus::kOptimal)
      result.sum_of_wan_peaks_mbps = sum_wan_peaks(inputs, result.weights);
    result.fallback_pivots += discarded.iterations + discarded.fallback_pivots;
    result.solve_seconds += discarded.solve_seconds;
    result.fallback_seconds += discarded.solve_seconds;
    result.build_seconds += discarded.build_seconds;
  }
  result.attempts = 1;
  return result;
}

}  // namespace titan::titannext
