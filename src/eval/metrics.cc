#include "eval/metrics.h"

#include <algorithm>

#include "core/stats.h"
#include "eval/slot_metrics.h"

namespace titan::eval {

WanUsage wan_usage(const workload::Trace& trace,
                   const std::vector<policies::CallAssignment>& assignments,
                   const net::NetworkDb& net) {
  const int slots = trace.num_slots();
  SlotMetricsSink sink(slots, static_cast<int>(net.topology().link_count()));
  for (std::size_t i = 0; i < trace.calls().size(); ++i) {
    const auto& call = trace.calls()[i];
    const auto& a = assignments[i];
    if (a.path != net::PathType::kWan) continue;
    const auto& config = trace.configs().get(call.config);
    for (const auto& [country, count] : config.participants) {
      const double bw = config.network_mbps_from(country);
      const auto& path = net.topology().path(country, a.dc);
      for (int s = call.start_slot;
           s < std::min(slots, call.start_slot + call.duration_slots); ++s)
        for (const auto lid : path.links) sink.add_wan_mbps(s, lid, bw);
    }
  }
  return sink.wan_usage();
}

namespace {

double call_max_e2e(const workload::CallConfig& config, core::DcId dc, net::PathType path,
                    const net::NetworkDb& net) {
  double top1 = 0.0, top2 = 0.0;
  int total = 0;
  for (const auto& [country, count] : config.participants) {
    const double one_way = net.latency().base_rtt_ms(country, dc, path) / 2.0;
    total += count;
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
  return total >= 2 ? top1 + top2 : 2.0 * top1;
}

LatencyStats summarize(std::vector<double>& values) {
  LatencyStats s;
  s.calls = values.size();
  if (values.empty()) return s;
  s.mean = core::mean(values);
  const auto qs = core::quantiles(values, {0.5, 0.95});
  s.median = qs[0];
  s.p95 = qs[1];
  return s;
}

}  // namespace

std::vector<LatencyStats> e2e_latency_per_day(
    const workload::Trace& trace, const std::vector<policies::CallAssignment>& assignments,
    const net::NetworkDb& net) {
  const int days = (trace.num_slots() + core::kSlotsPerDay - 1) / core::kSlotsPerDay;
  std::vector<std::vector<double>> per_day(static_cast<std::size_t>(days));
  for (std::size_t i = 0; i < trace.calls().size(); ++i) {
    const auto& call = trace.calls()[i];
    const auto& config = trace.configs().get(call.config);
    const int day = call.start_slot / core::kSlotsPerDay;
    per_day[static_cast<std::size_t>(day)].push_back(
        call_max_e2e(config, assignments[i].dc, assignments[i].path, net));
  }
  std::vector<LatencyStats> out;
  out.reserve(per_day.size());
  for (auto& v : per_day) out.push_back(summarize(v));
  return out;
}

LatencyStats e2e_latency_overall(const workload::Trace& trace,
                                 const std::vector<policies::CallAssignment>& assignments,
                                 const net::NetworkDb& net) {
  std::vector<double> values;
  values.reserve(trace.calls().size());
  for (std::size_t i = 0; i < trace.calls().size(); ++i) {
    const auto& call = trace.calls()[i];
    const auto& config = trace.configs().get(call.config);
    values.push_back(call_max_e2e(config, assignments[i].dc, assignments[i].path, net));
  }
  return summarize(values);
}

double internet_share(const workload::Trace& trace,
                      const std::vector<policies::CallAssignment>& assignments) {
  double internet = 0.0, total = 0.0;
  for (std::size_t i = 0; i < trace.calls().size(); ++i) {
    const auto& config = trace.configs().get(trace.calls()[i].config);
    const double participants = config.total_participants();
    total += participants;
    if (assignments[i].path == net::PathType::kInternet) internet += participants;
  }
  return total <= 0.0 ? 0.0 : internet / total;
}

}  // namespace titan::eval
