// Call configurations and reduced call configurations (§6, §6.2).
//
// A call config captures the resource requirements of a call: the countries
// of its participants, the participant count per country, and the dominant
// media type (audio < screen-share < video). All calls with the same config
// are fungible. Example: ((France-2, UK-1), Audio).
//
// A *reduced* call config factors scale out of the distribution (§6.2): the
// per-country counts are divided by their GCD, and intra-country calls
// collapse to a single participant — (Germany-2, Audio) and (Germany-3,
// Audio) both reduce to (Germany-1, Audio), so the LP makes one decision
// for both and first-joiner assignment rarely needs a migration. The
// `multiplier` preserves total resource demand: 100 calls of (Germany-2,
// Audio) become 200 reduced-units of (Germany-1, Audio).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "core/units.h"
#include "geo/world.h"
#include "media/media_types.h"

namespace titan::workload {

struct CallConfig {
  // Sorted by country id; counts > 0.
  std::vector<std::pair<core::CountryId, int>> participants;
  media::MediaType media = media::MediaType::kAudio;

  auto operator<=>(const CallConfig&) const = default;

  [[nodiscard]] int total_participants() const;
  [[nodiscard]] bool intra_country() const { return participants.size() == 1; }
  // Canonical string key, e.g. "FR:2|GB:1|video".
  [[nodiscard]] std::string key(const geo::World& world) const;

  // Resource footprints (the LP's computeUsed / networkUsed helpers).
  [[nodiscard]] core::Cores compute_cores() const;
  [[nodiscard]] core::Mbps network_mbps() const;
  // Bandwidth contributed by participants of one specific country.
  [[nodiscard]] core::Mbps network_mbps_from(core::CountryId country) const;

  // Normalizes: sorts by country and merges duplicates. Call after building.
  void canonicalize();
};

struct ReducedCallConfig {
  CallConfig config;  // the reduced shape
  int multiplier = 1; // reduced-units per original call
};

// §6.2 reduction: GCD factor-out; intra-country collapses to 1 participant.
[[nodiscard]] ReducedCallConfig reduce(const CallConfig& config);

// How the LP's demand grouping (§6.2) maps a registry's configs onto
// shapes: the reduced shape with reduction, the config itself without.
struct ConfigGrouping {
  std::vector<CallConfig> shapes;  // [group] -> shape
  std::vector<int> order;          // groups in CallConfig order of their shapes
  std::vector<int> group_of;       // [config id] -> group
  std::vector<int> multiplier;     // [config id] -> shape units per call
};

// Registry interning configs to dense ids (used for counting and the LP).
// It extends both groupings as it interns, so planning reads them instead
// of reducing every config again; without reduction each config is its own
// group, so config ids are group indices.
class ConfigRegistry {
 public:
  core::ConfigId intern(const CallConfig& config);
  [[nodiscard]] const CallConfig& get(core::ConfigId id) const;
  [[nodiscard]] std::size_t size() const { return full_.shapes.size(); }
  [[nodiscard]] const ConfigGrouping& grouping(bool use_reduction) const {
    return use_reduction ? reduced_ : full_;
  }

 private:
  struct Hash {
    std::size_t operator()(const CallConfig& c) const;
  };
  std::unordered_map<CallConfig, core::ConfigId, Hash> index_;
  ConfigGrouping full_;
  ConfigGrouping reduced_;
};

}  // namespace titan::workload
