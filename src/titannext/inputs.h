// Inputs to the Titan-Next offline plan (§6, "Inputs").
//
// The planner consumes: (a) per-DC MP compute capacity per timeslot,
// (b) per-(reduced config, timeslot) call counts — ground truth in §7's
// oracle evaluation, Holt-Winters forecasts in §8's practical evaluation,
// (c) per-DC Internet path capacities as learnt by Titan, and (d) the WAN
// topology (link set + per-pair paths) and latency tables. `PlanInputs`
// materializes all of it in LP-ready form, with a scope restricted to a
// region set (a single continent — Europe — in the paper's evaluation;
// multi-continent scopes plan cross-region serving and corridors).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/ids.h"
#include "core/timegrid.h"
#include "core/units.h"
#include "geo/region.h"
#include "net/network_db.h"
#include "workload/call_config.h"
#include "workload/callgen.h"

namespace titan::titannext {

// Per-config count series, [config][slot], as set_demand reads them: rows
// of a nested vector, or of one flat buffer whose rows all have the same
// length (the replan loop's forecast buffer). A view: the counts must
// outlive it.
class CountRows {
 public:
  CountRows(const std::vector<std::vector<double>>& nested)  // NOLINT(google-explicit-constructor)
      : nested_(&nested), rows_(nested.size()) {}
  CountRows(std::span<const double> flat, std::size_t row_length)
      : flat_(flat), row_length_(row_length),
        rows_(row_length == 0 ? 0 : flat.size() / row_length) {}

  [[nodiscard]] std::size_t size() const { return rows_; }
  [[nodiscard]] std::span<const double> operator[](std::size_t c) const {
    return nested_ != nullptr ? std::span<const double>((*nested_)[c])
                              : flat_.subspan(c * row_length_, row_length_);
  }

 private:
  const std::vector<std::vector<double>>* nested_ = nullptr;
  std::span<const double> flat_;
  std::size_t row_length_ = 0;
  std::size_t rows_ = 0;
};

struct ReducedDemand {
  workload::CallConfig config;           // reduced shape
  std::vector<double> units_per_slot;    // reduced-units per timeslot
  double total_units = 0.0;
};

struct PlanScope {
  // Continents whose countries and DCs are in plan scope. A bare Continent
  // converts implicitly, so `scope.regions = geo::Continent::kEurope` keeps
  // working; multi-region scopes list several (validated: non-empty, no
  // duplicates) and make cross-continent serving available to the LP.
  geo::RegionSet regions = geo::Continent::kEurope;
  int timeslots = core::kSlotsPerDay;  // planning horizon (24h of 30-min slots)
  // Keep only the top-K reduced configs by volume (the paper predicts the
  // top 3,000 call configs covering 90+% of calls; our scaled world needs
  // far fewer).
  int max_reduced_configs = 80;
  // Total MP compute provisioned across in-scope DCs, as a multiple of the
  // trace's peak per-slot compute demand. Distributed across DCs
  // proportionally to their synthetic `cores`.
  double compute_headroom = 2.0;
  // Scale on the Titan-learnt Internet capacities (the "double the traffic
  // on the Internet" ablation passes 2.0; "MP placement only" passes 0.0).
  double internet_capacity_scale = 1.0;
  // When > 0, DC compute capacity is anchored at this absolute core count
  // instead of the horizon's peak demand: capacity = anchor x headroom x
  // DC share x drain scale. This is what makes *sustained overload*
  // expressible — with the default (0, legacy behaviour, byte-identical)
  // capacity is re-derived from forecast demand at every replan, so it
  // grows with the workload and demand can never outrun it.
  double capacity_anchor_cores = 0.0;
};

class PlanInputs {
 public:
  // `fractions` maps (country, dc) -> safe Internet fraction as learnt by
  // Titan; use titan_sys::TitanSystem::internet_fraction or a constant map.
  PlanInputs(const net::NetworkDb& net, const PlanScope& scope,
             const std::map<std::pair<int, int>, double>& fractions);

  // Demand from per-(original config, slot) counts; reduction + grouping
  // (§6.2) happens here. `use_reduction=false` feeds full configs to the LP
  // (Table 4's ablation).
  void set_demand(const workload::ConfigRegistry& registry, CountRows counts_per_config,
                  bool use_reduction = true);

  [[nodiscard]] const PlanScope& scope() const { return scope_; }
  [[nodiscard]] const net::NetworkDb& net() const { return *net_; }
  [[nodiscard]] const std::vector<core::DcId>& dcs() const { return dcs_; }
  [[nodiscard]] const std::vector<ReducedDemand>& demands() const { return demands_; }
  [[nodiscard]] const std::vector<core::LinkId>& links() const { return links_; }

  [[nodiscard]] core::Cores dc_capacity(core::DcId dc) const;
  [[nodiscard]] core::Mbps internet_capacity(core::DcId dc) const;

  // Resource helpers shared by the LP builder and the evaluators.
  // Max end-to-end latency for a config hosted at `dc` over `path` (Fig. 10:
  // worst participant pair, one-way legs through the MP).
  [[nodiscard]] core::Millis max_e2e_ms(const workload::CallConfig& config, core::DcId dc,
                                        net::PathType path) const;
  // Sum of participant RTTs (the Locality-First objective).
  [[nodiscard]] core::Millis total_latency_ms(const workload::CallConfig& config,
                                              core::DcId dc, net::PathType path) const;

  // Index of a reduced config shape, -1 when out of scope.
  [[nodiscard]] int demand_index(const workload::CallConfig& reduced_shape) const;

  // Demand index of the intra-country singleton shape (one participant of
  // `country`, `media`) — the controller's first-joiner guess and its
  // miss-path media variants. A flat table rebuilt with the demand set, so
  // the assignment hot path reads one int instead of constructing a
  // CallConfig and walking the demand map. -1 when the shape is not in the
  // demand set (or the country is invalid / unknown).
  [[nodiscard]] int singleton_demand_index(core::CountryId country,
                                           media::MediaType media) const;

  // Block view for the region-block decomposition (docs/solver.md,
  // "Region-block decomposition"): the same inputs restricted to a subset
  // of DCs (by parent index) and demands (by parent index), both keeping
  // their parent relative order. Per-DC capacities are copied VERBATIM —
  // they are a function of the full-scope demand (peak-demand headroom
  // split, per-country bandwidth shares), so recomputing them from the
  // block's slice would give each block a different, wrong LP. The link
  // set is recomputed from the retained (participant country, DC) paths,
  // exactly as set_demand does — identical inputs restricted to everything
  // reproduce themselves byte for byte.
  [[nodiscard]] PlanInputs restricted(const std::vector<int>& dc_indices,
                                      const std::vector<int>& demand_indices) const;

 private:
  void finalize_capacities();
  // links_ from the WAN paths of every (demand participant, DC) pair.
  void collect_links();
  void build_singleton_index();

  const net::NetworkDb* net_;
  PlanScope scope_;
  std::map<std::pair<int, int>, double> fractions_;
  std::vector<core::DcId> dcs_;
  std::vector<ReducedDemand> demands_;
  std::map<workload::CallConfig, int> demand_index_;
  // [country * kMediaTypeCount + media] -> demand index of the singleton
  // shape, -1 when absent. Sized by the world's country set.
  std::vector<int> singleton_demand_;
  std::vector<core::LinkId> links_;
  std::vector<core::Cores> dc_capacity_;      // per dcs_ index
  std::vector<core::Mbps> internet_capacity_;  // per dcs_ index
};

}  // namespace titan::titannext
