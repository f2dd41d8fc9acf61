#include "titannext/inputs.h"

#include <algorithm>

namespace titan::titannext {

PlanInputs::PlanInputs(const net::NetworkDb& net, const PlanScope& scope,
                       const std::map<std::pair<int, int>, double>& fractions)
    : net_(&net), scope_(scope), fractions_(fractions) {
  scope_.regions.validate();
  dcs_ = geo::dcs_in(net.world(), scope_.regions);
}

void PlanInputs::set_demand(const workload::ConfigRegistry& registry,
                            CountRows counts_per_config, bool use_reduction) {
  demands_.clear();
  demand_index_.clear();

  // Group original configs into (possibly reduced) shapes, accumulating
  // reduced units = count * multiplier so resources are preserved (§6.2).
  // The registry's grouping maps each config to its group. Every group's
  // total is summed first, config by config in registry order and slot by
  // slot, and the groups, listed in CallConfig order of their shapes, are
  // ranked by it; only the top max_reduced_configs then get per-slot
  // units, summed in the same order.
  const workload::ConfigGrouping& grouping = registry.grouping(use_reduction);
  const int slots = scope_.timeslots;
  const auto observed = [&](std::size_t cfg) {
    const std::span<const double> counts = counts_per_config[cfg];
    return counts.first(std::min<std::size_t>(counts.size(), static_cast<std::size_t>(slots)));
  };
  std::vector<double> totals(grouping.shapes.size(), 0.0);
  for (std::size_t cfg = 0; cfg < registry.size(); ++cfg) {
    const int multiplier = grouping.multiplier[cfg];
    double& total = totals[static_cast<std::size_t>(grouping.group_of[cfg])];
    for (const double count : observed(cfg)) total += count * multiplier;
  }
  std::vector<int> ranked = grouping.order;
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    return totals[static_cast<std::size_t>(a)] > totals[static_cast<std::size_t>(b)];
  });
  if (static_cast<int>(ranked.size()) > scope_.max_reduced_configs)
    ranked.resize(static_cast<std::size_t>(scope_.max_reduced_configs));

  std::vector<int> kept_as(grouping.shapes.size(), -1);
  demands_.resize(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto group = static_cast<std::size_t>(ranked[i]);
    kept_as[group] = static_cast<int>(i);
    demands_[i].config = grouping.shapes[group];
    demands_[i].total_units = totals[group];
  }
  for (std::size_t cfg = 0; cfg < registry.size(); ++cfg) {
    const int i = kept_as[static_cast<std::size_t>(grouping.group_of[cfg])];
    if (i < 0) continue;
    const int multiplier = grouping.multiplier[cfg];
    auto& units = demands_[static_cast<std::size_t>(i)].units_per_slot;
    if (units.empty()) units.assign(static_cast<std::size_t>(slots), 0.0);
    const std::span<const double> counts = observed(cfg);
    for (std::size_t t = 0; t < counts.size(); ++t) units[t] += counts[t] * multiplier;
  }
  for (std::size_t i = 0; i < demands_.size(); ++i)
    demand_index_[demands_[i].config] = static_cast<int>(i);

  collect_links();
  build_singleton_index();
  finalize_capacities();
}

void PlanInputs::collect_links() {
  // Links in scope: union over WAN paths of in-scope (country, dc) pairs,
  // in ascending id order.
  std::vector<char> in_scope(net_->topology().link_count(), 0);
  for (const auto& d : demands_)
    for (const auto& [country, count] : d.config.participants)
      for (const auto dc : dcs_)
        for (const auto l : net_->topology().path(country, dc).links)
          in_scope[static_cast<std::size_t>(l.value())] = 1;
  links_.clear();
  for (std::size_t l = 0; l < in_scope.size(); ++l)
    if (in_scope[l]) links_.push_back(core::LinkId(static_cast<int>(l)));
}

void PlanInputs::build_singleton_index() {
  singleton_demand_.assign(net_->world().countries().size() *
                               static_cast<std::size_t>(media::kMediaTypeCount),
                           -1);
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    const auto& shape = demands_[i].config;
    if (shape.participants.size() != 1 || shape.participants[0].second != 1) continue;
    const int country = shape.participants[0].first.value();
    if (country < 0) continue;
    const std::size_t slot = static_cast<std::size_t>(country) *
                                 static_cast<std::size_t>(media::kMediaTypeCount) +
                             static_cast<std::size_t>(shape.media);
    if (slot < singleton_demand_.size()) singleton_demand_[slot] = static_cast<int>(i);
  }
}

int PlanInputs::singleton_demand_index(core::CountryId country, media::MediaType media) const {
  if (!country.valid()) return -1;
  const std::size_t slot = static_cast<std::size_t>(country.value()) *
                               static_cast<std::size_t>(media::kMediaTypeCount) +
                           static_cast<std::size_t>(media);
  return slot < singleton_demand_.size() ? singleton_demand_[slot] : -1;
}

void PlanInputs::finalize_capacities() {
  // Compute: peak per-slot demand across the horizon times the headroom,
  // split across DCs by their provisioned share. With a capacity anchor the
  // provisioned total is fixed (overload regime: demand may exceed it);
  // without one it floats with the horizon's peak demand (legacy).
  double peak_cores = 0.0;
  for (int t = 0; t < scope_.timeslots; ++t) {
    double total = 0.0;
    for (const auto& d : demands_)
      total += d.units_per_slot[static_cast<std::size_t>(t)] * d.config.compute_cores();
    peak_cores = std::max(peak_cores, total);
  }
  const double base_cores =
      scope_.capacity_anchor_cores > 0.0 ? scope_.capacity_anchor_cores : peak_cores;
  double share_total = 0.0;
  for (const auto dc : dcs_) share_total += net_->world().dc(dc).cores;
  dc_capacity_.assign(dcs_.size(), 0.0);
  // A drained DC (scenario maintenance events) keeps its provisioned share
  // in the split but only its drain-scaled remainder is usable by the plan.
  for (std::size_t i = 0; i < dcs_.size(); ++i)
    dc_capacity_[i] = base_cores * scope_.compute_headroom *
                      (net_->world().dc(dcs_[i]).cores / share_total) *
                      net_->dc_compute_scale(dcs_[i]);

  // Internet capacity per DC path: sum of Titan's per-(country, dc)
  // fractions applied to each country's share of the in-scope demand.
  internet_capacity_.assign(dcs_.size(), 0.0);
  // Peak per-country bandwidth demand across the horizon.
  std::map<int, double> peak_bw_by_country;
  for (int t = 0; t < scope_.timeslots; ++t) {
    std::map<int, double> bw;
    for (const auto& d : demands_)
      for (const auto& [country, count] : d.config.participants)
        bw[country.value()] += d.units_per_slot[static_cast<std::size_t>(t)] *
                               d.config.network_mbps_from(country);
    for (const auto& [c, v] : bw)
      peak_bw_by_country[c] = std::max(peak_bw_by_country[c], v);
  }
  // Titan learns the safe fraction per (country, DC) pair with the MP
  // assignment fixed, i.e. against the country's traffic *toward that DC*
  // (roughly 1/|DCs| of its total). Summing fraction x per-DC share across
  // countries caps each DC's Internet path so that the aggregate offload
  // stays at the average learnt fraction — the paper's "savings dominated
  // by the current limit on Internet offload (max. 20%)".
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    double cap = 0.0;
    for (const auto& [c, peak_bw] : peak_bw_by_country) {
      const auto it = fractions_.find({c, dcs_[i].value()});
      const double fraction = it == fractions_.end() ? 0.0 : it->second;
      cap += fraction * peak_bw / static_cast<double>(dcs_.size());
    }
    internet_capacity_[i] = cap * scope_.internet_capacity_scale;
  }
}

core::Cores PlanInputs::dc_capacity(core::DcId dc) const {
  for (std::size_t i = 0; i < dcs_.size(); ++i)
    if (dcs_[i] == dc) return dc_capacity_[i];
  return 0.0;
}

core::Mbps PlanInputs::internet_capacity(core::DcId dc) const {
  for (std::size_t i = 0; i < dcs_.size(); ++i)
    if (dcs_[i] == dc) return internet_capacity_[i];
  return 0.0;
}

core::Millis PlanInputs::max_e2e_ms(const workload::CallConfig& config, core::DcId dc,
                                    net::PathType path) const {
  // Worst pair = top-two one-way legs through the MP; with one participant,
  // the round trip to the MP.
  double top1 = 0.0, top2 = 0.0;
  int total = 0;
  for (const auto& [country, count] : config.participants) {
    const double one_way = net_->latency().base_rtt_ms(country, dc, path) / 2.0;
    total += count;
    // A country with 2+ participants can form a pair with itself.
    const int reps = std::min(count, 2);
    for (int r = 0; r < reps; ++r) {
      if (one_way > top1) {
        top2 = top1;
        top1 = one_way;
      } else if (one_way > top2) {
        top2 = one_way;
      }
    }
  }
  if (total >= 2) return top1 + top2;
  return 2.0 * top1;
}

core::Millis PlanInputs::total_latency_ms(const workload::CallConfig& config, core::DcId dc,
                                          net::PathType path) const {
  double sum = 0.0;
  for (const auto& [country, count] : config.participants)
    sum += count * net_->latency().base_rtt_ms(country, dc, path);
  return sum;
}

int PlanInputs::demand_index(const workload::CallConfig& reduced_shape) const {
  const auto it = demand_index_.find(reduced_shape);
  return it == demand_index_.end() ? -1 : it->second;
}

PlanInputs PlanInputs::restricted(const std::vector<int>& dc_indices,
                                  const std::vector<int>& demand_indices) const {
  PlanInputs out = *this;
  out.dcs_.clear();
  out.dc_capacity_.clear();
  out.internet_capacity_.clear();
  for (const int i : dc_indices) {
    out.dcs_.push_back(dcs_[static_cast<std::size_t>(i)]);
    // Parent capacities verbatim — never finalize_capacities on a slice.
    out.dc_capacity_.push_back(dc_capacity_[static_cast<std::size_t>(i)]);
    out.internet_capacity_.push_back(internet_capacity_[static_cast<std::size_t>(i)]);
  }
  out.demands_.clear();
  out.demand_index_.clear();
  for (const int c : demand_indices) out.demands_.push_back(demands_[static_cast<std::size_t>(c)]);
  for (std::size_t i = 0; i < out.demands_.size(); ++i)
    out.demand_index_[out.demands_[i].config] = static_cast<int>(i);

  out.collect_links();
  out.build_singleton_index();
  return out;
}

}  // namespace titan::titannext
