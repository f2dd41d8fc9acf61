#include "sim/scenario.h"

#include <cmath>
#include <stdexcept>

#include "core/hash.h"

namespace titan::sim {

namespace {

Scenario base_scenario() {
  Scenario s;
  s.pipeline.scope.timeslots = core::kSlotsPerDay;
  s.pipeline.scope.max_reduced_configs = 60;
  s.pipeline.top_k_forecast = 150;
  return s;
}

}  // namespace

Scenario steady_week() {
  Scenario s = base_scenario();
  s.name = "steady-week";
  s.description = "one undisturbed evaluation week with daily replans (Fig. 15 closed-loop)";
  return s;
}

Scenario weekend_transition() {
  Scenario s = base_scenario();
  s.name = "weekend-transition";
  s.description = "Friday through Monday: the workload collapses to weekend volume and "
                  "recovers; forecasts must track the regime change";
  s.eval_offset_days = 4;  // start on Friday
  s.eval_days = 4;         // Fri, Sat, Sun, Mon
  return s;
}

Scenario fiber_cut_failover() {
  Scenario s = base_scenario();
  s.name = "fiber-cut-failover";
  s.description = "mid-week fiber cut severs the top WAN link on the France path; Titan "
                  "surges the affected pairs' Internet fractions and the loop replans "
                  "(§4.2 finding 7)";
  Disturbance cut;
  cut.kind = NetworkEventKind::kFiberCut;
  cut.day = 2;                // Wednesday
  cut.slot_in_day = 20;       // 10:00, mid business morning
  cut.country = "france";
  cut.dc = "netherlands";
  cut.magnitude = 0.0;        // severed outright
  s.disturbances.push_back(cut);
  return s;
}

Scenario dc_drain() {
  Scenario s = base_scenario();
  s.name = "dc-drain";
  s.description = "maintenance fully drains the Netherlands MP DC on Thursday morning; "
                  "active calls evacuate and replans spread the load";
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 3;              // Thursday
  drain.slot_in_day = 16;     // 08:00
  drain.dc = "netherlands";
  drain.magnitude = 0.0;
  s.disturbances.push_back(drain);
  return s;
}

Scenario flash_crowd() {
  Scenario s = base_scenario();
  s.name = "flash-crowd";
  s.description = "a Tuesday-morning regional event triples France call volume for four "
                  "hours; forecasts trained on calm history under-provision";
  SurgeSpec surge;
  surge.day = 1;              // Tuesday
  surge.begin_slot_in_day = 18;
  surge.end_slot_in_day = 26;
  surge.country = "france";
  surge.factor = 3.0;
  s.surges.push_back(surge);
  // The surge also breaks the forecast regime: model the under-forecast
  // explicitly so forecast columns covering the window are biased low,
  // whichever replan produces them.
  Disturbance bias;
  bias.kind = NetworkEventKind::kForecastBias;
  bias.day = 1;
  bias.slot_in_day = 18;
  bias.duration_slots = 8;
  bias.magnitude = 0.7;
  s.disturbances.push_back(bias);
  return s;
}

Scenario transit_degrade_failover() {
  Scenario s = base_scenario();
  s.name = "transit-degrade-failover";
  s.description = "a transit ISP at the Netherlands DC congests for a Tuesday business "
                  "morning; every homed pair sees >= 1% Internet loss, per-call route "
                  "failover moves traffic to the WAN and Titan steers the pairs to an "
                  "alternate transit (§4.2 finding 6, §6.4)";
  Disturbance degrade;
  degrade.kind = NetworkEventKind::kTransitDegrade;
  degrade.day = 1;               // Tuesday
  degrade.slot_in_day = 18;      // 09:00
  degrade.duration_slots = 8;    // a four-hour congestion episode
  degrade.country = "france";    // resolve the transit France is homed onto
  degrade.dc = "netherlands";
  degrade.magnitude = 0.03;      // 3% added loss: well past the 1% threshold
  s.disturbances.push_back(degrade);
  return s;
}

Scenario rolling_maintenance() {
  Scenario s = base_scenario();
  s.name = "rolling-maintenance";
  s.description = "rolling half-capacity maintenance across the European DCs, one at a "
                  "time with restore windows in between; each phase evacuates ~half of "
                  "the in-flight calls at the DC under maintenance (§4.2 drains)";
  // Wednesday night into Thursday morning, the classic maintenance slot:
  // three hours per DC at half capacity, one hour restored between phases.
  add_rolling_maintenance(s, {"netherlands", "ireland", "uk"}, /*day=*/2,
                          /*slot_in_day=*/40 /* 20:00 */, /*window_slots=*/6,
                          /*gap_slots=*/2, /*magnitude=*/0.5);
  return s;
}

Scenario cut_then_flash_crowd() {
  Scenario s = base_scenario();
  s.name = "cut-then-flash-crowd";
  s.description = "compound drill: a Tuesday fiber cut severs the France WAN path, then "
                  "a Wednesday-morning flash crowd triples France volume while the "
                  "network is still degraded — surge traffic must ride the already "
                  "surged Internet fractions and the rerouted WAN";
  Disturbance cut;
  cut.kind = NetworkEventKind::kFiberCut;
  cut.day = 1;                // Tuesday
  cut.slot_in_day = 20;       // 10:00
  cut.country = "france";
  cut.dc = "netherlands";
  cut.magnitude = 0.0;        // severed outright
  s.disturbances.push_back(cut);
  SurgeSpec surge;
  surge.day = 2;              // Wednesday
  surge.begin_slot_in_day = 18;
  surge.end_slot_in_day = 26;
  surge.country = "france";
  surge.factor = 3.0;
  s.surges.push_back(surge);
  Disturbance bias;           // the crowd breaks the forecasts, as in flash-crowd
  bias.kind = NetworkEventKind::kForecastBias;
  bias.day = 2;
  bias.slot_in_day = 18;
  bias.duration_slots = 8;
  bias.magnitude = 0.7;
  s.disturbances.push_back(bias);
  return s;
}

Scenario na_steady_week() {
  Scenario s = base_scenario();
  s.name = "na-steady-week";
  s.description = "one undisturbed North American evaluation week with daily replans — the "
                  "European steady-week drill transplanted onto the NA countries and the "
                  "eight NA DCs";
  s.pipeline.scope.regions = geo::Continent::kNorthAmerica;
  // 8 DCs vs Europe's 5: a slightly tighter reduced set keeps the LP at
  // the European scenarios' column count (simplex time is superlinear).
  s.pipeline.scope.max_reduced_configs = 40;
  return s;
}

Scenario asia_flash_crowd() {
  Scenario s = base_scenario();
  s.name = "asia-flash-crowd";
  s.description = "a Tuesday-morning regional event triples India call volume for four "
                  "hours across the Asian scope; forecasts trained on calm history "
                  "under-provision";
  s.pipeline.scope.regions = geo::Continent::kAsia;
  SurgeSpec surge;
  surge.day = 1;  // Tuesday
  surge.begin_slot_in_day = 18;
  surge.end_slot_in_day = 26;
  surge.country = "india";
  surge.factor = 3.0;
  s.surges.push_back(surge);
  Disturbance bias;  // the crowd breaks the forecasts, as in flash-crowd
  bias.kind = NetworkEventKind::kForecastBias;
  bias.day = 1;
  bias.slot_in_day = 18;
  bias.duration_slots = 8;
  bias.magnitude = 0.7;
  s.disturbances.push_back(bias);
  return s;
}

Scenario global_steady_week() {
  Scenario s = base_scenario();
  s.name = "global-steady-week";
  s.description = "one undisturbed week across all three paper regions (NA + Europe + "
                  "Asia, 18 DCs) with cross-continent corridor calls in the mix — the "
                  "paper's global world planned as one scope";
  s.pipeline.scope.regions = {geo::Continent::kNorthAmerica, geo::Continent::kEurope,
                              geo::Continent::kAsia};
  s.cross_region_fraction = 0.15;
  // Full base-scenario fidelity (day horizon, daily replans, full reduced
  // set): the region-block decomposition solves the 18-DC scope as three
  // per-continent LPs plus a small coupling LP, so the global scope no
  // longer pays the monolithic simplex's superlinear column cost.
  return s;
}

Scenario na_cut_shifts_to_eu() {
  Scenario s = base_scenario();
  s.name = "na-cut-shifts-to-eu";
  s.description = "a catastrophic Wednesday event takes every North American DC offline "
                  "for four hours; their in-flight calls evacuate across the Atlantic and "
                  "replans serve the whole NA+EU scope from Europe until the region "
                  "restores — the cross-region load shift is visible in the per-region "
                  "slot metrics";
  s.pipeline.scope.regions = {geo::Continent::kNorthAmerica, geo::Continent::kEurope};
  s.cross_region_fraction = 0.10;
  // 13 DCs at full base-scenario fidelity — the region-block decomposition
  // carries the multi-region cost (see global-steady-week).
  // Europe alone must be able to absorb the NA outage: EU holds ~36% of the
  // scope's provisioned cores, so 3x headroom keeps the LP feasible with the
  // whole NA fleet at zero capacity.
  s.pipeline.scope.compute_headroom = 3.0;
  for (const char* dc : {"us1", "us2", "us3", "us4", "us5", "us6", "us7", "canada"}) {
    Disturbance drain;
    drain.kind = NetworkEventKind::kDcDrain;
    drain.day = 2;           // Wednesday
    drain.slot_in_day = 18;  // 09:00
    drain.duration_slots = 8;
    drain.dc = dc;
    drain.magnitude = 0.0;  // the region goes dark
    s.disturbances.push_back(drain);
  }
  return s;
}

Scenario overload_sustained() {
  Scenario s = base_scenario();
  s.name = "overload-sustained";
  s.description = "two weekdays at five times the trained volume against capacity anchored "
                  "at 0.8x the historical peak — day-integrated demand runs ~1.7x aggregate "
                  "capacity, so admission control must degrade media shapes through the "
                  "whole business day and shed calls at the peaks, fairly per region";
  s.eval_days = 2;  // Monday + Tuesday, both fully overloaded
  s.capacity_anchor = true;
  s.admission_control = true;
  // Provision *below* the historical peak: even the un-amplified business
  // day brushes the degrade band, and the 5x amplification pushes far past
  // reject territory — integrated over the whole day, not just its peak.
  s.pipeline.scope.compute_headroom = 0.8;
  s.overload_factor = 5.0;  // whole eval window (begin 0, end -1)
  // The amplified regime breaks the trained forecasts the same way a flash
  // crowd does; bias the forecast columns low across both days.
  Disturbance bias;
  bias.kind = NetworkEventKind::kForecastBias;
  bias.day = 0;
  bias.slot_in_day = 0;
  bias.duration_slots = 2 * core::kSlotsPerDay;
  bias.magnitude = 0.7;
  s.disturbances.push_back(bias);
  return s;
}

Scenario regional_catastrophe() {
  Scenario s = base_scenario();
  s.name = "regional-catastrophe";
  s.description = "compound Wednesday catastrophe: the Amsterdam DC (largest in Europe) "
                  "goes dark for eight hours while a transit ISP congests the France "
                  "Internet paths and a flash crowd triples France and Germany volume on "
                  "the surviving DCs — anchored capacity means the survivors cannot "
                  "absorb it all, and admission control degrades then sheds";
  s.capacity_anchor = true;
  s.admission_control = true;
  // Modest provisioning: healthy days run clean, but losing the largest DC
  // under a surge pushes the survivors past threshold.
  s.pipeline.scope.compute_headroom = 1.2;
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 2;            // Wednesday
  drain.slot_in_day = 18;   // 09:00
  drain.duration_slots = 16;  // dark through the business day
  drain.dc = "netherlands";
  drain.magnitude = 0.0;
  s.disturbances.push_back(drain);
  Disturbance degrade;
  degrade.kind = NetworkEventKind::kTransitDegrade;
  degrade.day = 2;
  degrade.slot_in_day = 18;
  degrade.duration_slots = 8;
  degrade.country = "france";
  degrade.dc = "ireland";     // a *survivor's* transit congests under the shifted load
  degrade.magnitude = 0.03;   // 3% added loss: past the route-failover threshold
  s.disturbances.push_back(degrade);
  for (const char* country : {"france", "germany"}) {
    SurgeSpec surge;
    surge.day = 2;
    surge.begin_slot_in_day = 18;
    surge.end_slot_in_day = 26;
    surge.country = country;
    surge.factor = 3.0;
    s.surges.push_back(surge);
  }
  Disturbance bias;  // the crowd breaks the forecasts, as in flash-crowd
  bias.kind = NetworkEventKind::kForecastBias;
  bias.day = 2;
  bias.slot_in_day = 18;
  bias.duration_slots = 8;
  bias.magnitude = 0.7;
  s.disturbances.push_back(bias);
  return s;
}

Scenario cascading_drain() {
  Scenario s = base_scenario();
  s.name = "cascading-drain";
  s.description = "cascade drill: with capacity anchored at 1.1x peak and Tuesday running "
                  "hot (1.5x volume), the Amsterdam DC drains and its evacuated calls tip "
                  "the Dublin DC over threshold — which then drains too, stacking both "
                  "evacuations onto the remaining DCs while admission control holds the "
                  "line";
  s.capacity_anchor = true;
  s.admission_control = true;
  s.pipeline.scope.compute_headroom = 1.1;
  // A hot (not yet overloaded) Tuesday: the drains, not the volume alone,
  // cause the overload.
  s.overload_factor = 1.5;
  s.overload_begin_day = 1;
  s.overload_end_day = 2;
  Disturbance first;
  first.kind = NetworkEventKind::kDcDrain;
  first.day = 1;             // Tuesday
  first.slot_in_day = 16;    // 08:00
  first.duration_slots = 16;
  first.dc = "netherlands";
  first.magnitude = 0.0;
  s.disturbances.push_back(first);
  Disturbance second;
  second.kind = NetworkEventKind::kDcDrain;
  second.day = 1;
  second.slot_in_day = 20;   // 10:00 — two hours of evacuated load tips it over
  second.duration_slots = 12;
  second.dc = "ireland";
  second.magnitude = 0.0;
  s.disturbances.push_back(second);
  return s;
}

void add_rolling_maintenance(Scenario& s, const std::vector<std::string>& dcs, int day,
                             int slot_in_day, int window_slots, int gap_slots,
                             double magnitude) {
  if (window_slots <= 0) throw std::invalid_argument("rolling maintenance window_slots");
  if (gap_slots < 0) throw std::invalid_argument("rolling maintenance gap_slots");
  int begin = day * core::kSlotsPerDay + slot_in_day;
  for (const auto& dc : dcs) {
    Disturbance drain;
    drain.kind = NetworkEventKind::kDcDrain;
    drain.day = begin / core::kSlotsPerDay;
    drain.slot_in_day = begin % core::kSlotsPerDay;
    drain.duration_slots = window_slots;
    drain.dc = dc;
    drain.magnitude = magnitude;
    s.disturbances.push_back(drain);
    begin += window_slots + gap_slots;
  }
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "steady-week",    "weekend-transition",       "fiber-cut-failover",
      "dc-drain",       "flash-crowd",              "transit-degrade-failover",
      "rolling-maintenance", "cut-then-flash-crowd",
      "na-steady-week", "asia-flash-crowd",         "global-steady-week",
      "na-cut-shifts-to-eu",
      "overload-sustained", "regional-catastrophe", "cascading-drain"};
  return names;
}

Scenario make_scenario(const std::string& name) {
  if (name == "steady-week") return steady_week();
  if (name == "weekend-transition") return weekend_transition();
  if (name == "fiber-cut-failover") return fiber_cut_failover();
  if (name == "dc-drain") return dc_drain();
  if (name == "flash-crowd") return flash_crowd();
  if (name == "transit-degrade-failover") return transit_degrade_failover();
  if (name == "rolling-maintenance") return rolling_maintenance();
  if (name == "cut-then-flash-crowd") return cut_then_flash_crowd();
  if (name == "na-steady-week") return na_steady_week();
  if (name == "asia-flash-crowd") return asia_flash_crowd();
  if (name == "global-steady-week") return global_steady_week();
  if (name == "na-cut-shifts-to-eu") return na_cut_shifts_to_eu();
  if (name == "overload-sustained") return overload_sustained();
  if (name == "regional-catastrophe") return regional_catastrophe();
  if (name == "cascading-drain") return cascading_drain();
  throw std::invalid_argument("unknown scenario: " + name);
}

ScenarioWorkload build_workload(const Scenario& scenario, const geo::World& world) {
  const int hist_slots = scenario.history_slots();
  const int total_slots = hist_slots + scenario.eval_slots();
  workload::TraceOptions topts;
  topts.seed = scenario.seed;
  topts.weeks = (total_slots + core::kSlotsPerWeek - 1) / core::kSlotsPerWeek;
  topts.peak_slot_calls = scenario.peak_slot_calls;
  topts.weekend_factor = scenario.weekend_factor;
  topts.regions = scenario.pipeline.scope.regions;
  topts.cross_region_fraction = scenario.cross_region_fraction;
  const auto full = workload::TraceGenerator(world).generate(topts);

  ScenarioWorkload out;
  out.history = full.window(0, hist_slots);
  workload::Trace eval = full.window(hist_slots, total_slots);

  // Overload amplification first: region-wide, so aggregate demand outruns
  // anchored capacity. Surges below snapshot the amplified originals.
  if (scenario.overload_factor > 1.0) {
    if (scenario.overload_factor > 50.0)
      throw std::invalid_argument("overload_factor implausibly large");
    const int begin = scenario.overload_begin_day * core::kSlotsPerDay;
    const int end = scenario.overload_end_day < 0
                        ? eval.num_slots()
                        : scenario.overload_end_day * core::kSlotsPerDay;
    if (begin < 0 || begin >= end || end > eval.num_slots())
      throw std::invalid_argument("overload window outside the eval window");
    eval = workload::amplify_window(eval, begin, end, scenario.overload_factor, scenario.seed);
  }

  if (scenario.surges.empty()) {
    out.eval = std::move(eval);
    return out;
  }

  // Flash-crowd injection: clone matching arrivals (factor - 1) extra
  // times, deterministically per call id. Clones keep the config (the
  // registry is shared) and get fresh ids past the original range.
  std::vector<workload::CallRecord> calls = eval.calls();
  std::int64_t next_id = 0;
  for (const auto& call : calls) next_id = std::max(next_id, call.id.value() + 1);
  // Each surge clones *original* calls only (snapshot taken before any
  // surge), so overlapping surges add rather than compound.
  const std::size_t original_count = calls.size();
  for (std::size_t surge_index = 0; surge_index < scenario.surges.size(); ++surge_index) {
    const auto& surge = scenario.surges[surge_index];
    const auto region = world.find_country(surge.country);
    if (!region.valid()) throw std::invalid_argument("surge country: " + surge.country);
    if (!scenario.pipeline.scope.regions.contains(world.country(region).continent))
      throw std::invalid_argument("surge country outside plan scope: " + surge.country);
    const int begin = surge.day * core::kSlotsPerDay + surge.begin_slot_in_day;
    const int end = surge.day * core::kSlotsPerDay + surge.end_slot_in_day;
    for (std::size_t i = 0; i < original_count; ++i) {
      const auto call = calls[i];
      if (call.start_slot < begin || call.start_slot >= end) continue;
      if (call.first_joiner != region) continue;
      const double extra = surge.factor - 1.0;
      int clones = static_cast<int>(std::floor(extra));
      // The surge index is part of the key: overlapping surges must make
      // *independent* fractional-clone decisions per call, not perfectly
      // correlated ones.
      core::Rng rng = core::rng_at(scenario.seed, 0xF1a5, surge_index, call.id.value());
      if (rng.chance(extra - clones)) ++clones;
      for (int k = 0; k < clones; ++k) {
        workload::CallRecord clone = call;
        clone.id = core::CallId(next_id++);
        calls.push_back(clone);
      }
    }
  }
  out.eval = eval.with_calls(std::move(calls));
  return out;
}

}  // namespace titan::sim
