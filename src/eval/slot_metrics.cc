#include "eval/slot_metrics.h"

#include <algorithm>
#include <cassert>

namespace titan::eval {

SlotMetricsSink::SlotMetricsSink(int num_slots, int num_links)
    : num_slots_(num_slots), num_links_(num_links) {
  link_mbps_.assign(static_cast<std::size_t>(num_slots) * static_cast<std::size_t>(num_links),
                    0.0);
  const auto n = static_cast<std::size_t>(num_slots);
  arrivals_.assign(n, 0.0);
  dc_migrations_.assign(n, 0.0);
  route_changes_.assign(n, 0.0);
  forced_migrations_.assign(n, 0.0);
  transit_failovers_.assign(n, 0.0);
  out_of_plan_.assign(n, 0.0);
  fallbacks_.assign(n, 0.0);
  rejected_.assign(n, 0.0);
  degraded_.assign(n, 0.0);
  internet_participants_.assign(n, 0.0);
  participants_.assign(n, 0.0);
  mos_sum_.assign(n, 0.0);
  mos_count_.assign(n, 0.0);
  const auto rn = static_cast<std::size_t>(geo::kNumContinents) * n;
  region_arrivals_.assign(rn, 0.0);
  region_active_calls_.assign(rn, 0.0);
  region_wan_mbps_.assign(rn, 0.0);
  region_rejected_.assign(rn, 0.0);
  region_degraded_.assign(rn, 0.0);
}

void SlotMetricsSink::add_wan_mbps(core::SlotIndex s, core::LinkId link, double mbps) {
  link_mbps_[cell(s, link)] += mbps;
}
void SlotMetricsSink::add_arrival(core::SlotIndex s) {
  arrivals_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_dc_migration(core::SlotIndex s) {
  dc_migrations_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_route_change(core::SlotIndex s) {
  route_changes_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_forced_migration(core::SlotIndex s) {
  forced_migrations_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_transit_failover(core::SlotIndex s) {
  transit_failovers_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_out_of_plan(core::SlotIndex s) {
  out_of_plan_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_fallback(core::SlotIndex s) {
  fallbacks_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_participants(core::SlotIndex s, int internet, int total) {
  internet_participants_[static_cast<std::size_t>(s)] += internet;
  participants_[static_cast<std::size_t>(s)] += total;
}
void SlotMetricsSink::add_mos(core::SlotIndex s, double mos) {
  mos_sum_[static_cast<std::size_t>(s)] += mos;
  mos_count_[static_cast<std::size_t>(s)] += 1.0;
}
void SlotMetricsSink::add_region_arrival(core::SlotIndex s, geo::Continent region) {
  region_arrivals_[region_cell(s, region)] += 1.0;
}
void SlotMetricsSink::add_region_active_call(core::SlotIndex s, geo::Continent region) {
  region_active_calls_[region_cell(s, region)] += 1.0;
}
void SlotMetricsSink::add_region_wan_mbps(core::SlotIndex s, geo::Continent region,
                                          double mbps) {
  region_wan_mbps_[region_cell(s, region)] += mbps;
}
void SlotMetricsSink::add_rejected(core::SlotIndex s, geo::Continent region) {
  rejected_[static_cast<std::size_t>(s)] += 1.0;
  region_rejected_[region_cell(s, region)] += 1.0;
}
void SlotMetricsSink::add_degraded(core::SlotIndex s, geo::Continent region) {
  degraded_[static_cast<std::size_t>(s)] += 1.0;
  region_degraded_[region_cell(s, region)] += 1.0;
}

namespace {
void add_into(std::vector<double>& a, const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}
}  // namespace

void SlotMetricsSink::merge(const SlotMetricsSink& other) {
  assert(num_slots_ == other.num_slots_ && num_links_ == other.num_links_);
  add_into(link_mbps_, other.link_mbps_);
  add_into(arrivals_, other.arrivals_);
  add_into(dc_migrations_, other.dc_migrations_);
  add_into(route_changes_, other.route_changes_);
  add_into(forced_migrations_, other.forced_migrations_);
  add_into(transit_failovers_, other.transit_failovers_);
  add_into(out_of_plan_, other.out_of_plan_);
  add_into(fallbacks_, other.fallbacks_);
  add_into(rejected_, other.rejected_);
  add_into(degraded_, other.degraded_);
  add_into(internet_participants_, other.internet_participants_);
  add_into(participants_, other.participants_);
  add_into(mos_sum_, other.mos_sum_);
  add_into(mos_count_, other.mos_count_);
  add_into(region_arrivals_, other.region_arrivals_);
  add_into(region_active_calls_, other.region_active_calls_);
  add_into(region_wan_mbps_, other.region_wan_mbps_);
  add_into(region_rejected_, other.region_rejected_);
  add_into(region_degraded_, other.region_degraded_);
}

std::vector<double> SlotMetricsSink::region_active_calls(geo::Continent region) const {
  const auto begin =
      region_active_calls_.begin() + static_cast<std::ptrdiff_t>(region_cell(0, region));
  return {begin, begin + num_slots_};
}

double SlotMetricsSink::region_total(const std::vector<double>& stream,
                                     geo::Continent region) const {
  double total = 0.0;
  for (int s = 0; s < num_slots_; ++s) total += stream[region_cell(s, region)];
  return total;
}

WanUsage SlotMetricsSink::wan_usage() const {
  WanUsage out;
  const int days = (num_slots_ + core::kSlotsPerDay - 1) / core::kSlotsPerDay;
  out.per_day_sum_of_peaks_mbps.assign(static_cast<std::size_t>(days), 0.0);
  for (int l = 0; l < num_links_; ++l) {
    double whole_peak = 0.0;
    std::vector<double> day_peak(static_cast<std::size_t>(days), 0.0);
    for (int s = 0; s < num_slots_; ++s) {
      const double v = link_mbps_[cell(s, core::LinkId(l))];
      whole_peak = std::max(whole_peak, v);
      auto& dp = day_peak[static_cast<std::size_t>(s / core::kSlotsPerDay)];
      dp = std::max(dp, v);
      out.total_traffic_gb += v * core::kSlotSeconds / 8.0 / 1000.0;
    }
    out.sum_of_peaks_mbps += whole_peak;
    for (int d = 0; d < days; ++d)
      out.per_day_sum_of_peaks_mbps[static_cast<std::size_t>(d)] +=
          day_peak[static_cast<std::size_t>(d)];
  }
  return out;
}

std::vector<double> SlotMetricsSink::wan_total_mbps_per_slot() const {
  std::vector<double> out(static_cast<std::size_t>(num_slots_), 0.0);
  for (int s = 0; s < num_slots_; ++s)
    for (int l = 0; l < num_links_; ++l)
      out[static_cast<std::size_t>(s)] += link_mbps_[cell(s, core::LinkId(l))];
  return out;
}

double SlotMetricsSink::link_peak_mbps(core::LinkId link) const {
  double peak = 0.0;
  for (int s = 0; s < num_slots_; ++s) peak = std::max(peak, link_mbps_[cell(s, link)]);
  return peak;
}

namespace {
std::vector<double> ratio(const std::vector<double>& num, const std::vector<double>& den) {
  std::vector<double> out(num.size(), 0.0);
  for (std::size_t i = 0; i < num.size(); ++i)
    if (den[i] > 0.0) out[i] = num[i] / den[i];
  return out;
}
double ratio_total(const std::vector<double>& num, const std::vector<double>& den) {
  double n = 0.0, d = 0.0;
  for (std::size_t i = 0; i < num.size(); ++i) {
    n += num[i];
    d += den[i];
  }
  return d > 0.0 ? n / d : 0.0;
}
}  // namespace

std::vector<double> SlotMetricsSink::out_of_plan_rate_per_slot() const {
  return ratio(out_of_plan_, arrivals_);
}
std::vector<double> SlotMetricsSink::internet_share_per_slot() const {
  return ratio(internet_participants_, participants_);
}
double SlotMetricsSink::internet_share_overall() const {
  return ratio_total(internet_participants_, participants_);
}
std::vector<double> SlotMetricsSink::mean_mos_per_slot() const {
  return ratio(mos_sum_, mos_count_);
}
double SlotMetricsSink::mean_mos_overall() const { return ratio_total(mos_sum_, mos_count_); }

}  // namespace titan::eval
