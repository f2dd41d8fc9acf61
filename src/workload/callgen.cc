#include "workload/callgen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/hash.h"

namespace titan::workload {

double TraceGenerator::diurnal_factor(core::SlotIndex slot, double weekend_factor) {
  const double hour = core::hour_of(slot) + (slot % core::kSlotsPerHour) * 0.5;
  // Double-hump business day: peaks near 10:30 and 15:00, deep night trough.
  const double morning = std::exp(-std::pow(hour - 10.5, 2.0) / (2.0 * 2.2 * 2.2));
  const double afternoon = 0.9 * std::exp(-std::pow(hour - 15.0, 2.0) / (2.0 * 2.5 * 2.5));
  double factor = 0.03 + morning + afternoon;
  if (core::is_weekend(slot)) factor *= weekend_factor;
  return factor;
}

Trace TraceGenerator::generate(const TraceOptions& options) const {
  Trace trace;
  ConfigRegistry registry;
  trace.num_slots_ = options.weeks * core::kSlotsPerWeek;
  trace.by_slot_.resize(static_cast<std::size_t>(trace.num_slots_));
  core::Rng rng(options.seed);

  // Countries eligible as participants.
  options.regions.validate();
  if (options.cross_region_fraction < 0.0 || options.cross_region_fraction > 1.0)
    throw std::invalid_argument("cross_region_fraction must be in [0, 1]");
  const auto countries = geo::countries_in(*world_, options.regions);

  // Neighbour table for international calls: a country's partners are drawn
  // from its own continent weighted by call volume (gravity-ish). For a
  // single-region scope that is the whole weight table — the pre-region-set
  // behaviour, draw for draw. Multi-region scopes additionally keep an
  // away-pool per continent for cross-region calls.
  std::vector<double> volume_weights(world_->countries().size(), 0.0);
  for (const auto c : countries)
    volume_weights[static_cast<std::size_t>(c.value())] = world_->country(c).call_volume;
  const bool multi = options.regions.size() > 1;
  std::vector<std::vector<double>> home_weights;  // [continent]: partners on it
  std::vector<std::vector<double>> away_weights;  // [continent]: partners off it
  if (multi) {
    home_weights.assign(static_cast<std::size_t>(geo::kNumContinents),
                        std::vector<double>(world_->countries().size(), 0.0));
    away_weights = home_weights;
    for (const auto c : countries) {
      const auto& country = world_->country(c);
      for (int r = 0; r < geo::kNumContinents; ++r) {
        auto& pool = r == static_cast<int>(country.continent) ? home_weights : away_weights;
        pool[static_cast<std::size_t>(r)][static_cast<std::size_t>(c.value())] =
            country.call_volume;
      }
    }
  }

  std::int64_t next_call_id = 0;
  for (core::SlotIndex slot = 0; slot < trace.num_slots_; ++slot) {
    const double rate = options.peak_slot_calls *
                        diurnal_factor(slot, options.weekend_factor) /
                        1.03;  // normalize peak of the diurnal curve to ~1
    const int n_calls = rng.poisson(rate);
    for (int k = 0; k < n_calls; ++k) {
      CallRecord rec;
      rec.id = core::CallId(next_call_id++);
      rec.start_slot = slot;
      rec.duration_slots = rng.chance(0.25) ? 2 : 1;

      // Participants.
      CallConfig config;
      const core::CountryId home =
          core::CountryId(static_cast<int>(rng.weighted_pick(volume_weights)));
      int n_participants = 1;
      while (n_participants < options.max_participants &&
             rng.chance(options.participant_decay))
        ++n_participants;

      const auto home_region = static_cast<std::size_t>(world_->country(home).continent);
      const auto& intl_weights = multi ? home_weights[home_region] : volume_weights;
      const bool cross = multi && n_participants >= 2 && options.cross_region_fraction > 0.0 &&
                         rng.chance(options.cross_region_fraction);
      if (cross) {
        // Cross-region call: the far side sits on another continent of the
        // scope (the NA–EU / EU–Asia corridor traffic the paper's global
        // world implies).
        const core::CountryId other =
            core::CountryId(static_cast<int>(rng.weighted_pick(away_weights[home_region])));
        const int first = std::max(1, n_participants / 2);
        config.participants = {{home, first}, {other, n_participants - first}};
        config.canonicalize();
      } else if (rng.chance(options.intra_country_fraction) || n_participants == 1) {
        config.participants = {{home, n_participants}};
      } else {
        // International: split across 2 (sometimes 3) countries.
        core::CountryId other = home;
        while (other == home)
          other = core::CountryId(static_cast<int>(rng.weighted_pick(intl_weights)));
        const int first = std::max(1, n_participants / 2);
        config.participants = {{home, first}, {other, n_participants - first}};
        if (n_participants >= 3 && rng.chance(0.2)) {
          core::CountryId third = home;
          while (third == home || third == other)
            third = core::CountryId(static_cast<int>(rng.weighted_pick(intl_weights)));
          // Move one participant to the third country.
          if (config.participants[1].second > 1) {
            --config.participants[1].second;
            config.participants.push_back({third, 1});
          }
        }
        config.canonicalize();
      }

      // Media type: the config records the dominant media (§6: "we assign
      // call config using the most resource-hungry media type").
      const double u = rng.uniform();
      config.media = u < options.audio_share ? media::MediaType::kAudio
                     : u < options.audio_share + options.video_share
                         ? media::MediaType::kVideo
                         : media::MediaType::kScreenShare;

      rec.config = registry.intern(config);
      rec.first_joiner = home;
      trace.by_slot_[static_cast<std::size_t>(slot)].push_back(trace.calls_.size());
      trace.calls_.push_back(rec);
    }
  }
  trace.registry_ = std::make_shared<const ConfigRegistry>(std::move(registry));
  return trace;
}

const std::vector<std::size_t>& Trace::calls_starting_in(core::SlotIndex slot) const {
  return by_slot_.at(static_cast<std::size_t>(slot));
}

std::vector<std::vector<double>> Trace::config_counts() const {
  std::vector<std::vector<double>> counts(
      registry_->size(), std::vector<double>(static_cast<std::size_t>(num_slots_), 0.0));
  for (const auto& call : calls_)
    counts[static_cast<std::size_t>(call.config.value())]
          [static_cast<std::size_t>(call.start_slot)] += 1.0;
  return counts;
}

std::vector<std::vector<double>> Trace::config_active_counts() const {
  std::vector<std::vector<double>> counts(
      registry_->size(), std::vector<double>(static_cast<std::size_t>(num_slots_), 0.0));
  for (const auto& call : calls_) {
    const int end = std::min(num_slots_, call.start_slot + call.duration_slots);
    for (int s = call.start_slot; s < end; ++s)
      counts[static_cast<std::size_t>(call.config.value())][static_cast<std::size_t>(s)] +=
          1.0;
  }
  return counts;
}

std::vector<core::ConfigId> Trace::configs_by_volume() const {
  std::vector<double> totals(registry_->size(), 0.0);
  for (const auto& call : calls_) totals[static_cast<std::size_t>(call.config.value())] += 1.0;
  std::vector<core::ConfigId> ids;
  ids.reserve(registry_->size());
  for (std::size_t i = 0; i < registry_->size(); ++i)
    ids.push_back(core::ConfigId(static_cast<int>(i)));
  std::sort(ids.begin(), ids.end(), [&](core::ConfigId a, core::ConfigId b) {
    return totals[static_cast<std::size_t>(a.value())] >
           totals[static_cast<std::size_t>(b.value())];
  });
  return ids;
}

Trace Trace::with_calls(std::vector<CallRecord> calls) const {
  Trace out;
  out.registry_ = registry_;
  out.num_slots_ = num_slots_;
  const int num_slots = num_slots_;
  std::sort(calls.begin(), calls.end(), [](const CallRecord& a, const CallRecord& b) {
    return a.start_slot != b.start_slot ? a.start_slot < b.start_slot : a.id < b.id;
  });
  out.by_slot_.resize(static_cast<std::size_t>(num_slots));
  for (auto& call : calls) {
    if (call.start_slot < 0 || call.start_slot >= num_slots)
      throw std::out_of_range("Trace::with_calls: call starts outside [0, num_slots)");
    out.by_slot_[static_cast<std::size_t>(call.start_slot)].push_back(out.calls_.size());
    out.calls_.push_back(call);
  }
  return out;
}

Trace amplify_window(const Trace& trace, int begin_slot, int end_slot, double factor,
                     std::uint64_t seed) {
  if (factor <= 1.0) return trace;
  std::vector<CallRecord> calls = trace.calls();
  std::int64_t next_id = 0;
  for (const auto& call : calls) next_id = std::max<std::int64_t>(next_id, call.id.value() + 1);
  const std::size_t original_count = calls.size();
  const double extra = factor - 1.0;
  const int whole = static_cast<int>(std::floor(extra));
  for (std::size_t i = 0; i < original_count; ++i) {
    const CallRecord call = calls[i];
    if (call.start_slot < begin_slot || call.start_slot >= end_slot) continue;
    int clones = whole;
    core::Rng rng = core::rng_at(seed, 0x0F7D, call.id.value());
    if (rng.chance(extra - whole)) ++clones;
    for (int k = 0; k < clones; ++k) {
      CallRecord clone = call;
      clone.id = core::CallId(next_id++);
      calls.push_back(clone);
    }
  }
  return trace.with_calls(std::move(calls));
}

Trace Trace::window(core::SlotIndex begin, core::SlotIndex end) const {
  Trace out;
  out.registry_ = registry_;
  out.num_slots_ = end - begin;
  out.by_slot_.resize(static_cast<std::size_t>(out.num_slots_));
  for (const auto& call : calls_) {
    if (call.start_slot < begin || call.start_slot >= end) continue;
    CallRecord rec = call;
    rec.start_slot -= begin;
    out.by_slot_[static_cast<std::size_t>(rec.start_slot)].push_back(out.calls_.size());
    out.calls_.push_back(rec);
  }
  return out;
}

}  // namespace titan::workload
