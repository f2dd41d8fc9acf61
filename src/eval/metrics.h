// Evaluation metrics (§7.1).
//
//  (a) sum of peak bandwidth across WAN links — the paper's cost proxy,
//      computed per day (peaks are taken within each day, matching Fig. 14
//      / Fig. 15 which report a value per weekday);
//  (b) total WAN traffic across peak and off-peak times;
//  (c) end-to-end latency — per-call maximum E2E latency, summarized per
//      day as mean / median / P95 (Table 3);
//  (d) migrations — counted by the online controller, reported in PolicyRun.
#pragma once

#include <string>
#include <vector>

#include "core/timegrid.h"
#include "net/network_db.h"
#include "policies/policy.h"
#include "workload/callgen.h"

namespace titan::eval {

struct WanUsage {
  // Sum over links of the link's peak within each day (Mbps).
  std::vector<double> per_day_sum_of_peaks_mbps;
  // Sum over links of the whole-trace peak (Mbps).
  double sum_of_peaks_mbps = 0.0;
  // Total WAN bytes over the trace, in gigabytes.
  double total_traffic_gb = 0.0;

  // Bitwise (not approximate): the sim engine promises bit-identical
  // results across thread counts, and the sweep harness checks it.
  bool operator==(const WanUsage&) const = default;
};

// Aggregates per-slot per-link WAN bandwidth from the call assignments into
// an eval::SlotMetricsSink and returns its wan_usage(), the function the
// closed-loop simulator reports the same metric with. Internet-routed calls
// contribute nothing to WAN links (hot potato).
[[nodiscard]] WanUsage wan_usage(const workload::Trace& trace,
                                 const std::vector<policies::CallAssignment>& assignments,
                                 const net::NetworkDb& net);

struct LatencyStats {
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  std::size_t calls = 0;
};

// Per-day distribution of per-call max-E2E latency (planning latencies,
// consistent with what the LP optimizes).
[[nodiscard]] std::vector<LatencyStats> e2e_latency_per_day(
    const workload::Trace& trace, const std::vector<policies::CallAssignment>& assignments,
    const net::NetworkDb& net);

// Whole-trace summary.
[[nodiscard]] LatencyStats e2e_latency_overall(
    const workload::Trace& trace, const std::vector<policies::CallAssignment>& assignments,
    const net::NetworkDb& net);

// Fraction of participant-slots routed over the Internet (sanity metric).
[[nodiscard]] double internet_share(const workload::Trace& trace,
                                    const std::vector<policies::CallAssignment>& assignments);

}  // namespace titan::eval
