// Tests for the media substrate: RTP accounting, the MOS model, and the MP
// relay simulator.
#include <gtest/gtest.h>

#include "core/stats.h"
#include "media/media_types.h"
#include "media/mos.h"
#include "media/relay_sim.h"
#include "media/rtp.h"

namespace titan::media {
namespace {

// --- Media types ------------------------------------------------------------

TEST(MediaTypesTest, ResourceOrdering) {
  // audio < screen-share < video in both bandwidth and compute (§6).
  EXPECT_LT(bandwidth_per_participant(MediaType::kAudio),
            bandwidth_per_participant(MediaType::kScreenShare));
  EXPECT_LT(bandwidth_per_participant(MediaType::kScreenShare),
            bandwidth_per_participant(MediaType::kVideo));
  EXPECT_LT(compute_per_participant(MediaType::kAudio),
            compute_per_participant(MediaType::kVideo));
  EXPECT_EQ(dominant(MediaType::kAudio, MediaType::kVideo), MediaType::kVideo);
  EXPECT_EQ(dominant(MediaType::kScreenShare, MediaType::kAudio), MediaType::kScreenShare);
}

// --- RTP ---------------------------------------------------------------------

TEST(RtpTest, LosslessLegDeliversEverything) {
  core::Rng rng(1);
  RtpLegParams leg;
  leg.loss = 0.0;
  leg.duration_s = 10.0;
  const RtpStats stats = simulate_leg(leg, rng);
  EXPECT_EQ(stats.packets_sent, 500u);
  EXPECT_EQ(stats.packets_received, 500u);
  EXPECT_EQ(stats.cumulative_lost, 0u);
  EXPECT_DOUBLE_EQ(stats.loss_fraction, 0.0);
}

TEST(RtpTest, LossFractionTracksConfiguredLoss) {
  core::Rng rng(2);
  RtpLegParams leg;
  leg.loss = 0.05;
  leg.duration_s = 200.0;  // 10k packets for a tight estimate
  const RtpStats stats = simulate_leg(leg, rng);
  EXPECT_NEAR(stats.loss_fraction, 0.05, 0.01);
  // Sequence-gap accounting should roughly agree with send/receive delta.
  EXPECT_NEAR(static_cast<double>(stats.cumulative_lost),
              static_cast<double>(stats.packets_sent - stats.packets_received),
              stats.packets_sent * 0.005 + 5.0);
}

TEST(RtpTest, JitterEstimateScalesWithDelayNoise) {
  core::Rng rng(3);
  RtpLegParams calm, noisy;
  calm.jitter_ms = 1.0;
  noisy.jitter_ms = 10.0;
  calm.duration_s = noisy.duration_s = 60.0;
  const double j_calm = simulate_leg(calm, rng).interarrival_jitter_ms;
  const double j_noisy = simulate_leg(noisy, rng).interarrival_jitter_ms;
  EXPECT_GT(j_noisy, j_calm * 3.0);
}

TEST(RtpTest, MeanDelayNearConfiguredOneWay) {
  core::Rng rng(4);
  RtpLegParams leg;
  leg.one_way_delay_ms = 40.0;
  leg.duration_s = 60.0;
  const RtpStats stats = simulate_leg(leg, rng);
  EXPECT_NEAR(stats.mean_delay_ms, 40.0, 2.0);
}

TEST(RtpTest, CombineLegLoss) {
  EXPECT_DOUBLE_EQ(combine_leg_loss(0.0, 0.0), 0.0);
  EXPECT_NEAR(combine_leg_loss(0.01, 0.01), 0.0199, 1e-4);
  EXPECT_DOUBLE_EQ(combine_leg_loss(1.0, 0.0), 1.0);
}

// --- MOS ----------------------------------------------------------------------

TEST(MosTest, FlatBelowKneeThenLinearDecline) {
  const MosModel mos;
  // Fig. 11: flat under ~75 msec.
  EXPECT_NEAR(mos.expected(50.0), mos.expected(74.0), 1e-9);
  // Roughly linear decline after: ~0.2 MOS between 75 and 250 msec.
  const double drop = mos.expected(75.0) - mos.expected(250.0);
  EXPECT_GT(drop, 0.12);
  EXPECT_LT(drop, 0.35);
  // Monotone non-increasing.
  double prev = 10.0;
  for (double ms = 50.0; ms <= 400.0; ms += 25.0) {
    const double m = mos.expected(ms);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(MosTest, LossPenaltyOnlyAboveFecThreshold) {
  const MosModel mos;
  EXPECT_NEAR(mos.expected(60.0, 0.004), mos.expected(60.0, 0.0), 1e-9);
  EXPECT_LT(mos.expected(60.0, 0.05), mos.expected(60.0, 0.0) - 0.1);
}

TEST(MosTest, SamplesAreClampedAndNoisy) {
  const MosModel mos;
  core::Rng rng(7);
  core::Accumulator acc;
  for (int i = 0; i < 2000; ++i) {
    const double r = mos.sample(100.0, 0.0, rng);
    EXPECT_GE(r, 1.0);
    EXPECT_LE(r, 5.0);
    acc.add(r);
  }
  // Clamping at 5.0 clips the upper tail, so the sample mean sits slightly
  // below the deterministic curve.
  EXPECT_LE(acc.mean(), mos.expected(100.0) + 0.02);
  EXPECT_NEAR(acc.mean(), mos.expected(100.0), 0.15);
  EXPECT_GT(acc.stddev(), 0.2);
}

// The clamp ranges of expected() and sample() are unified: both floor at
// params.min_mos. (sample() used to clamp to a hard-coded [1, 5], so with a
// raised floor individual ratings could land *below* the deterministic
// curve's own minimum.)
TEST(MosTest, SampleSharesExpectedClampFloor) {
  MosModelParams params;
  params.min_mos = 2.0;
  const MosModel mos(params);
  core::Rng rng(9);
  // Far past the knee with heavy loss: expected() sits on the floor.
  EXPECT_DOUBLE_EQ(mos.expected(2000.0, 0.5), 2.0);
  for (int i = 0; i < 500; ++i) {
    const double r = mos.sample(2000.0, 0.5, rng);
    EXPECT_GE(r, 2.0);
    EXPECT_LE(r, 5.0);
  }
}

// Admission control's media step-downs cost MOS: each degrade step
// subtracts a fixed penalty from the expected rating, saturating at the
// model floor, and sample() applies the same shift.
TEST(MosTest, DegradeStepsLowerExpectedMos) {
  const MosModel mos;
  const double base = mos.expected(60.0);
  EXPECT_NEAR(mos.expected(60.0, 0.0, 1), base - mos.params().degrade_penalty_per_step, 1e-9);
  EXPECT_NEAR(mos.expected(60.0, 0.0, 2), base - 2.0 * mos.params().degrade_penalty_per_step,
              1e-9);
  // Saturates at min_mos, never below.
  EXPECT_DOUBLE_EQ(mos.expected(60.0, 0.0, 1000), mos.params().min_mos);
  // Paired-seed draws share the noise term, so away from the clamp rails
  // the sample difference is exactly the per-step penalty. 475 ms sits
  // mid-curve (expected ~4.37) where one noise draw cannot reach either
  // rail.
  core::Rng a(10), b(10);
  const double undegraded = mos.sample(475.0, 0.0, b, 0);
  ASSERT_LT(undegraded, 5.0);
  ASSERT_GT(undegraded, mos.params().min_mos + mos.params().degrade_penalty_per_step);
  EXPECT_NEAR(mos.sample(475.0, 0.0, a, 1) - undegraded,
              -mos.params().degrade_penalty_per_step, 1e-9);
}

TEST(MosTest, RatingsAreSampled) {
  const MosModel mos;
  core::Rng rng(8);
  int collected = 0;
  for (int i = 0; i < 5000; ++i) collected += mos.collects_rating(rng);
  EXPECT_NEAR(collected / 5000.0, mos.params().sampling_rate, 0.02);
}

// --- Relay simulator ------------------------------------------------------------

class RelayTest : public ::testing::Test {
 protected:
  geo::World world_ = geo::World::make();
  net::NetworkDb db_{world_};
  MosModel mos_;
  RelaySimulator sim_{db_, mos_};
};

TEST_F(RelayTest, CallTelemetryShapes) {
  const auto fr = world_.find_country("france");
  const auto uk = world_.find_country("uk");
  const auto nl = world_.find_dc("netherlands");
  Call call;
  call.id = core::CallId(1);
  call.mp_dc = nl;
  call.media = MediaType::kAudio;
  call.participants = {{core::ParticipantId(1), fr, net::PathType::kWan},
                       {core::ParticipantId(2), uk, net::PathType::kInternet}};
  core::Rng rng(9);
  const CallTelemetry t = sim_.simulate_call(call, 5, nullptr, rng);
  ASSERT_EQ(t.participants.size(), 2u);
  // Max E2E equals the sum of the two one-way legs.
  EXPECT_NEAR(t.max_e2e_ms,
              t.participants[0].rtt_ms / 2 + t.participants[1].rtt_ms / 2, 1e-9);
  for (const auto& p : t.participants) {
    EXPECT_GE(p.rtp_loss, 0.0);
    EXPECT_LT(p.rtp_loss, 0.5);
    EXPECT_GT(p.rtt_ms, 0.0);
    EXPECT_GT(p.jitter_ms, 0.0);
  }
}

TEST_F(RelayTest, SingleParticipantCallHasRoundTripE2e) {
  const auto fr = world_.find_country("france");
  Call call;
  call.id = core::CallId(2);
  call.mp_dc = world_.find_dc("france");
  call.participants = {{core::ParticipantId(1), fr, net::PathType::kWan}};
  core::Rng rng(10);
  const CallTelemetry t = sim_.simulate_call(call, 0, nullptr, rng);
  EXPECT_NEAR(t.max_e2e_ms, t.participants[0].rtt_ms, 1e-9);
}

TEST_F(RelayTest, OfferedLoadInflatesInternetLegs) {
  const auto uk = world_.find_country("uk");
  const auto nl = world_.find_dc("netherlands");
  Call call;
  call.id = core::CallId(3);
  call.mp_dc = nl;
  call.participants = {{core::ParticipantId(1), uk, net::PathType::kInternet}};

  const double cap = db_.physical_internet_capacity(uk, nl);
  core::Rng rng_a(11), rng_b(11);
  const auto calm = sim_.simulate_call(call, 7, nullptr, rng_a);
  const auto overloaded = sim_.simulate_call(
      call, 7, [&](core::CountryId, core::DcId) { return 4.0 * cap; }, rng_b);
  EXPECT_GT(overloaded.participants[0].rtt_ms, calm.participants[0].rtt_ms + 10.0);
  EXPECT_GT(overloaded.participants[0].rtp_loss, calm.participants[0].rtp_loss);
}

TEST_F(RelayTest, MosSampledOnSubsetOfCalls) {
  const auto fr = world_.find_country("france");
  Call call;
  call.id = core::CallId(4);
  call.mp_dc = world_.find_dc("france");
  call.participants = {{core::ParticipantId(1), fr, net::PathType::kWan},
                       {core::ParticipantId(2), fr, net::PathType::kWan}};
  core::Rng rng(12);
  int with_mos = 0;
  for (int i = 0; i < 300; ++i)
    with_mos += sim_.simulate_call(call, 0, nullptr, rng).mos.has_value();
  EXPECT_GT(with_mos, 3);
  EXPECT_LT(with_mos, 100);
}

}  // namespace
}  // namespace titan::media
