// Per-slot metric streams for the closed-loop simulator (src/sim/).
//
// The simulator emits metrics *as slots elapse*: per-slot per-link WAN
// bandwidth, arrivals, migrations, out-of-plan convergences, plan
// fallbacks, the Internet participant share, and a MOS proxy — plus
// per-continent slices (arrivals by the first joiner's continent; in-flight
// calls and offered WAN bandwidth by the serving DC's continent) so
// cross-region load shifts are assertable per slot. The streams are the
// simulator's only record of these events: SimResult's run tallies are
// their totals. Sinks are accumulated per shard during a simulation and
// merged in shard order, so the totals are bit-identical regardless of
// worker-thread count, then finalized into the WanUsage shape of the §7
// cost metric — which the static evaluator (eval::wan_usage) computes
// through a sink too.
#pragma once

#include <vector>

#include "core/ids.h"
#include "core/timegrid.h"
#include "eval/metrics.h"
#include "geo/world.h"

namespace titan::eval {

class SlotMetricsSink {
 public:
  SlotMetricsSink() = default;
  SlotMetricsSink(int num_slots, int num_links);

  [[nodiscard]] int num_slots() const { return num_slots_; }

  void add_wan_mbps(core::SlotIndex s, core::LinkId link, double mbps);
  void add_arrival(core::SlotIndex s);
  void add_dc_migration(core::SlotIndex s);
  void add_route_change(core::SlotIndex s);
  void add_forced_migration(core::SlotIndex s);  // network-event evictions
  void add_transit_failover(core::SlotIndex s);  // pair steered to alt transit
  void add_out_of_plan(core::SlotIndex s);
  void add_fallback(core::SlotIndex s);  // arrival placed off the plan
  void add_participants(core::SlotIndex s, int internet, int total);
  void add_mos(core::SlotIndex s, double mos);
  // Per-continent slices. Arrivals are sliced by the *first joiner's*
  // continent (where demand originates); in-flight calls and offered WAN
  // bandwidth by the *serving DC's* continent (where load lands) — the
  // pair that makes a cross-region load shift measurable.
  void add_region_arrival(core::SlotIndex s, geo::Continent region);
  void add_region_active_call(core::SlotIndex s, geo::Continent region);
  void add_region_wan_mbps(core::SlotIndex s, geo::Continent region, double mbps);
  // Overload regime (admission control): calls refused outright and calls
  // admitted with a degraded media shape, sliced by the first joiner's
  // continent (where the demand — and the shed — originates).
  void add_rejected(core::SlotIndex s, geo::Continent region);
  void add_degraded(core::SlotIndex s, geo::Continent region);

  // Element-wise accumulation of another sink with identical dimensions.
  void merge(const SlotMetricsSink& other);

  // Bitwise equality over every stream — the check behind the engine's
  // "identical at any thread count" guarantee.
  bool operator==(const SlotMetricsSink&) const = default;

  // --- finalized views --------------------------------------------------
  // Day-peak summary in the shape of the §7 cost metric.
  [[nodiscard]] WanUsage wan_usage() const;
  // Sum across links of the slot's WAN bandwidth.
  [[nodiscard]] std::vector<double> wan_total_mbps_per_slot() const;
  [[nodiscard]] double link_peak_mbps(core::LinkId link) const;
  [[nodiscard]] double link_mbps_at(core::SlotIndex s, core::LinkId link) const {
    return link_mbps_[cell(s, link)];
  }
  // Out-of-plan convergences / arrivals, per slot (0 where no arrivals).
  [[nodiscard]] std::vector<double> out_of_plan_rate_per_slot() const;
  // Internet participants / all participants, per slot.
  [[nodiscard]] std::vector<double> internet_share_per_slot() const;
  [[nodiscard]] double internet_share_overall() const;
  // Mean MOS proxy of calls arriving in the slot (0 where none sampled).
  [[nodiscard]] std::vector<double> mean_mos_per_slot() const;
  [[nodiscard]] double mean_mos_overall() const;

  [[nodiscard]] const std::vector<double>& arrivals() const { return arrivals_; }
  [[nodiscard]] const std::vector<double>& dc_migrations() const { return dc_migrations_; }
  [[nodiscard]] const std::vector<double>& route_changes() const { return route_changes_; }
  [[nodiscard]] const std::vector<double>& forced_migrations() const {
    return forced_migrations_;
  }
  [[nodiscard]] const std::vector<double>& transit_failovers() const {
    return transit_failovers_;
  }
  [[nodiscard]] const std::vector<double>& out_of_plan() const { return out_of_plan_; }
  [[nodiscard]] const std::vector<double>& fallbacks() const { return fallbacks_; }
  [[nodiscard]] const std::vector<double>& rejected() const { return rejected_; }
  [[nodiscard]] const std::vector<double>& degraded() const { return degraded_; }

  // Per-slot copy of one continent's in-flight calls.
  [[nodiscard]] std::vector<double> region_active_calls(geo::Continent region) const;
  // Whole-window totals of a continent's slice.
  [[nodiscard]] double region_arrivals_total(geo::Continent region) const {
    return region_total(region_arrivals_, region);
  }
  [[nodiscard]] double region_wan_mbps_total(geo::Continent region) const {
    return region_total(region_wan_mbps_, region);
  }
  [[nodiscard]] double region_rejected_total(geo::Continent region) const {
    return region_total(region_rejected_, region);
  }
  [[nodiscard]] double region_degraded_total(geo::Continent region) const {
    return region_total(region_degraded_, region);
  }

 private:
  [[nodiscard]] std::size_t cell(core::SlotIndex s, core::LinkId link) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(num_links_) +
           static_cast<std::size_t>(link.value());
  }
  // Region streams are stored contiguously per continent so slicing one
  // continent out is a plain subrange copy.
  [[nodiscard]] std::size_t region_cell(core::SlotIndex s, geo::Continent region) const {
    return static_cast<std::size_t>(region) * static_cast<std::size_t>(num_slots_) +
           static_cast<std::size_t>(s);
  }
  [[nodiscard]] double region_total(const std::vector<double>& stream,
                                    geo::Continent region) const;

  int num_slots_ = 0;
  int num_links_ = 0;
  std::vector<double> link_mbps_;  // [slot * num_links + link]
  std::vector<double> arrivals_;
  std::vector<double> dc_migrations_;
  std::vector<double> route_changes_;
  std::vector<double> forced_migrations_;
  std::vector<double> transit_failovers_;
  std::vector<double> out_of_plan_;
  std::vector<double> fallbacks_;
  std::vector<double> rejected_;
  std::vector<double> degraded_;
  std::vector<double> internet_participants_;
  std::vector<double> participants_;
  std::vector<double> mos_sum_;
  std::vector<double> mos_count_;
  // [continent * num_slots + slot]
  std::vector<double> region_arrivals_;
  std::vector<double> region_active_calls_;
  std::vector<double> region_wan_mbps_;
  std::vector<double> region_rejected_;
  std::vector<double> region_degraded_;
};

}  // namespace titan::eval
