// RTP-like packet stream simulation (RFC 3550 accounting).
//
// Titan's quality signals come from RTP receiver reports: loss is inferred
// from missing sequence numbers and jitter is the RFC 3550 interarrival
// jitter estimate. We simulate a packet stream between a participant and an
// MP leg: packets are emitted at the media type's nominal rate, each is
// dropped i.i.d. with the leg's loss probability, and arrival times get
// one-way delay plus jitter noise. The receiver-side accounting then runs
// exactly as a real RTP stack would: cumulative-lost from extended highest
// sequence number, and the J += (|D| - J)/16 jitter filter.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/units.h"

namespace titan::media {

struct RtpLegParams {
  double packet_rate_pps = 50.0;
  double duration_s = 30.0;
  core::LossFraction loss = 0.0;       // i.i.d. drop probability per packet
  core::Millis one_way_delay_ms = 30;  // propagation + queueing mean
  core::Millis jitter_ms = 3.4;        // stddev of per-packet delay noise
};

// Receiver-report statistics for one leg.
struct RtpStats {
  std::uint32_t packets_sent = 0;
  std::uint32_t packets_received = 0;
  std::uint32_t cumulative_lost = 0;   // from sequence-number gaps
  double loss_fraction = 0.0;          // cumulative_lost / packets_sent
  core::Millis interarrival_jitter_ms = 0.0;  // RFC 3550 J estimate
  core::Millis mean_delay_ms = 0.0;
};

// Simulates one leg and returns the receiver-report statistics.
[[nodiscard]] RtpStats simulate_leg(const RtpLegParams& params, core::Rng& rng);

// Arrival record of one received packet (the raw input of simulate_leg).
struct RtpArrival {
  std::uint32_t sequence = 0;
  double send_time_ms = 0.0;
  double arrival_time_ms = 0.0;
};

// Simulates one leg and returns raw arrivals (lost packets omitted).
[[nodiscard]] std::vector<RtpArrival> simulate_arrivals(const RtpLegParams& params,
                                                        core::Rng& rng);

// Combines independent up/down leg loss into the end-to-end relay loss a
// participant pair experiences through the MP.
[[nodiscard]] inline core::LossFraction combine_leg_loss(core::LossFraction up,
                                                         core::LossFraction down) {
  return 1.0 - (1.0 - up) * (1.0 - down);
}

}  // namespace titan::media
