#include "workload/call_config.h"

#include <algorithm>
#include <numeric>

namespace titan::workload {

int CallConfig::total_participants() const {
  int n = 0;
  for (const auto& [country, count] : participants) n += count;
  return n;
}

std::string CallConfig::key(const geo::World& world) const {
  std::string out;
  for (const auto& [country, count] : participants) {
    if (!out.empty()) out += '|';
    out += world.country(country).iso + ":" + std::to_string(count);
  }
  out += '|';
  out += media::media_type_name(media);
  return out;
}

core::Cores CallConfig::compute_cores() const {
  return media::compute_per_participant(media) * total_participants();
}

core::Mbps CallConfig::network_mbps() const {
  return media::bandwidth_per_participant(media) * total_participants();
}

core::Mbps CallConfig::network_mbps_from(core::CountryId country) const {
  for (const auto& [c, count] : participants)
    if (c == country) return media::bandwidth_per_participant(media) * count;
  return 0.0;
}

void CallConfig::canonicalize() {
  std::sort(participants.begin(), participants.end());
  std::vector<std::pair<core::CountryId, int>> merged;
  for (const auto& [country, count] : participants) {
    if (!merged.empty() && merged.back().first == country)
      merged.back().second += count;
    else
      merged.emplace_back(country, count);
  }
  participants = std::move(merged);
}

ReducedCallConfig reduce(const CallConfig& config) {
  ReducedCallConfig out;
  out.config = config;
  if (config.participants.empty()) return out;
  if (config.intra_country()) {
    // Intra-country: collapse to a single participant.
    out.multiplier = config.participants.front().second;
    out.config.participants.front().second = 1;
    return out;
  }
  int g = 0;
  for (const auto& [country, count] : config.participants) g = std::gcd(g, count);
  if (g <= 1) return out;
  for (auto& [country, count] : out.config.participants) count /= g;
  out.multiplier = g;
  return out;
}

std::size_t ConfigRegistry::Hash::operator()(const CallConfig& c) const {
  std::size_t h = static_cast<std::size_t>(c.media) * 0x9e3779b97f4a7c15ULL;
  for (const auto& [country, count] : c.participants) {
    h ^= (static_cast<std::size_t>(country.value()) * 0xbf58476d1ce4e5b9ULL +
          static_cast<std::size_t>(count)) +
         0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

namespace {

// Adds one config to a grouping as a `multiplier`-unit member of `shape`,
// opening a group (kept in CallConfig order) when the shape is new.
void add_to_grouping(ConfigGrouping& grouping, const CallConfig& shape, int multiplier) {
  const auto pos = std::lower_bound(
      grouping.order.begin(), grouping.order.end(), shape, [&](int group, const CallConfig& s) {
        return grouping.shapes[static_cast<std::size_t>(group)] < s;
      });
  int group = 0;
  if (pos != grouping.order.end() && grouping.shapes[static_cast<std::size_t>(*pos)] == shape) {
    group = *pos;
  } else {
    group = static_cast<int>(grouping.shapes.size());
    grouping.shapes.push_back(shape);
    grouping.order.insert(pos, group);
  }
  grouping.group_of.push_back(group);
  grouping.multiplier.push_back(multiplier);
}

}  // namespace

core::ConfigId ConfigRegistry::intern(const CallConfig& config) {
  const auto it = index_.find(config);
  if (it != index_.end()) return it->second;
  const core::ConfigId id(static_cast<int>(size()));
  index_.emplace(config, id);
  add_to_grouping(full_, config, 1);
  const ReducedCallConfig reduced = reduce(config);
  add_to_grouping(reduced_, reduced.config, reduced.multiplier);
  return id;
}

const CallConfig& ConfigRegistry::get(core::ConfigId id) const {
  return full_.shapes.at(static_cast<std::size_t>(id.value()));
}

}  // namespace titan::workload
