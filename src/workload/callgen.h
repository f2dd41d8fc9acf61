// Synthetic call-trace generation (§7.3, §8: 4 weeks training + 1 week
// evaluation of Europe-contained calls).
//
// The generator reproduces the statistical structure Titan-Next depends on:
// strong daily and weekly seasonality (weekday double-hump business hours,
// quiet weekends), a heavy-tailed config popularity (most calls are small
// intra-country calls; the top ~3,000 configs cover 90+% of volume), a
// media mix, and mostly-intra-country participation. Each call records its
// first joiner's country — the only information the online controller has
// at assignment time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ids.h"
#include "core/rng.h"
#include "core/timegrid.h"
#include "geo/region.h"
#include "geo/world.h"
#include "workload/call_config.h"

namespace titan::workload {

struct CallRecord {
  core::CallId id;
  core::SlotIndex start_slot = 0;
  int duration_slots = 1;
  core::ConfigId config;
  core::CountryId first_joiner;
};

struct TraceOptions {
  std::uint64_t seed = 2024;
  int weeks = 5;  // 4 training + 1 evaluation by convention
  // Expected calls in the busiest weekday slot. The paper sees O(10M) calls
  // per weekday; we scale down while keeping the shape.
  double peak_slot_calls = 1200.0;
  double weekend_factor = 0.25;
  double intra_country_fraction = 0.82;
  // Participant-count distribution: P(n) ~ geometric-ish over [1, max].
  int max_participants = 10;
  double participant_decay = 0.45;
  // Media mix.
  double audio_share = 0.45;
  double video_share = 0.40;  // remainder is screen-share
  // Restrict participants to these continents (the §7/§8 evaluation uses
  // Europe-contained calls; multi-region scopes span several).
  geo::RegionSet regions = geo::Continent::kEurope;
  // Fraction of multi-participant calls whose participants span *two*
  // continents of the region set (NA–EU, EU–Asia corridor calls). Only
  // meaningful for multi-region scopes; a single-region trace is generated
  // by exactly the pre-region-set code path, byte for byte.
  double cross_region_fraction = 0.0;
};

class Trace {
 public:
  [[nodiscard]] const std::vector<CallRecord>& calls() const { return calls_; }
  [[nodiscard]] const ConfigRegistry& configs() const { return *registry_; }
  [[nodiscard]] int num_slots() const { return num_slots_; }

  // Calls starting in a slot.
  [[nodiscard]] const std::vector<std::size_t>& calls_starting_in(core::SlotIndex slot) const;

  // counts[config][slot] — calls *starting* in the slot; the series
  // Holt-Winters trains on.
  [[nodiscard]] std::vector<std::vector<double>> config_counts() const;

  // counts[config][slot] — calls *active* in the slot (a call occupies
  // [start, start + duration)). This is what the LP's per-slot capacity and
  // peak constraints should see.
  [[nodiscard]] std::vector<std::vector<double>> config_active_counts() const;

  // Config ids ordered by descending total call count (the paper predicts
  // the top 3,000 covering 90+% of calls).
  [[nodiscard]] std::vector<core::ConfigId> configs_by_volume() const;

  // Restricts to a window of slots [begin, end) re-based at slot 0. The
  // window shares this trace's config registry.
  [[nodiscard]] Trace window(core::SlotIndex begin, core::SlotIndex end) const;

  // The same registry and slot count with other calls (scenario tooling:
  // e.g. flash-crowd injection clones calls into an existing trace). Calls
  // are re-sorted by (start slot, id); the per-slot index is rebuilt.
  [[nodiscard]] Trace with_calls(std::vector<CallRecord> calls) const;

  friend class TraceGenerator;

 private:
  std::vector<CallRecord> calls_;
  // Shared by the windows and call sets derived from one generated trace;
  // never modified once the trace is generated.
  std::shared_ptr<const ConfigRegistry> registry_ = std::make_shared<const ConfigRegistry>();
  std::vector<std::vector<std::size_t>> by_slot_;
  int num_slots_ = 0;
};

// Overload amplification (the sim's overload regime): every call starting in
// [begin_slot, end_slot) is cloned (factor - 1) whole times plus a
// fractional-remainder coin per call, with fresh ids past the trace's id
// range and the config registry shared. Unlike a flash-crowd surge this is
// region-wide — every country in the trace scales — which is what pushes
// *aggregate* demand past anchored DC capacity rather than shifting load
// between DCs. Deterministic: the remainder coin is a pure hash of
// (seed, source call id). factor <= 1 returns the trace unchanged.
[[nodiscard]] Trace amplify_window(const Trace& trace, int begin_slot, int end_slot,
                                   double factor, std::uint64_t seed);

class TraceGenerator {
 public:
  explicit TraceGenerator(const geo::World& world) : world_(&world) {}

  [[nodiscard]] Trace generate(const TraceOptions& options) const;

  // Diurnal intensity multiplier for a slot (exposed for tests).
  [[nodiscard]] static double diurnal_factor(core::SlotIndex slot, double weekend_factor);

 private:
  const geo::World* world_;
};

}  // namespace titan::workload
