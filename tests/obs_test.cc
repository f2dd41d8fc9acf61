// Tests for the obs:: observability primitives (src/obs): histogram bucket
// determinism and merge-order invariance, quantile behaviour, and the
// trace recorder's Chrome trace_event export. The engine-level wiring
// (SimPerf, zero_wallclock masking, golden checksums) is covered in
// sim_test.cc; the cross-thread histogram identity in sweep_test.cc.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sweep/json.h"

namespace titan::obs {
namespace {

TEST(ObsHistogramTest, BucketEdgesAreAPureFunctionOfOptions) {
  const Histogram::Options opts{0.01, 1e6, 8};
  const Histogram a(opts);
  const Histogram b(opts);
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (std::size_t i = 0; i < a.num_buckets(); ++i) {
    // Bitwise, not approximate: identical edges are what make merged
    // counts bit-identical across shardings.
    EXPECT_EQ(a.bucket_lower(i), b.bucket_lower(i)) << i;
    EXPECT_EQ(a.bucket_upper(i), b.bucket_upper(i)) << i;
  }
  // 8 decades at 8 buckets per decade, plus underflow and overflow.
  EXPECT_EQ(a.num_buckets(), 8u * 8u + 2u);
}

TEST(ObsHistogramTest, BucketIndexRespectsHalfOpenEdges) {
  const Histogram h(Histogram::Options{1.0, 100.0, 1});
  // Buckets: [0,1) underflow, [1,10), [10,100), [100,inf) overflow.
  EXPECT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 1u);  // lower edge is inclusive
  EXPECT_EQ(h.bucket_index(9.999), 1u);
  EXPECT_EQ(h.bucket_index(10.0), 2u);
  EXPECT_EQ(h.bucket_index(99.999), 2u);
  EXPECT_EQ(h.bucket_index(100.0), 3u);  // max lands in overflow
  EXPECT_EQ(h.bucket_index(1e12), 3u);
}

TEST(ObsHistogramTest, InvalidOptionsThrow) {
  EXPECT_THROW(Histogram(Histogram::Options{0.0, 10.0, 4}), std::invalid_argument);
  EXPECT_THROW(Histogram(Histogram::Options{-1.0, 10.0, 4}), std::invalid_argument);
  EXPECT_THROW(Histogram(Histogram::Options{10.0, 10.0, 4}), std::invalid_argument);
  EXPECT_THROW(Histogram(Histogram::Options{10.0, 1.0, 4}), std::invalid_argument);
  EXPECT_THROW(Histogram(Histogram::Options{1.0, 10.0, 0}), std::invalid_argument);
}

TEST(ObsHistogramTest, MergeIsInvariantToSplitAndOrder) {
  // One stream of integer samples recorded three ways: single histogram,
  // round-robin across 4 shards merged 0..3, and the same shards merged in
  // reverse. All three must agree bit-for-bit (integer sums are exact, so
  // even `sum` is order-invariant).
  const Histogram::Options opts{1.0, 1e5, 4};
  core::Rng rng(1234);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i)
    samples.push_back(static_cast<double>(rng.uniform_int(0, 200000)));

  Histogram whole(opts);
  std::vector<Histogram> shards(4, Histogram(opts));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.record(samples[i]);
    shards[i % 4].record(samples[i]);
  }

  Histogram forward(opts);
  for (const auto& s : shards) forward.merge(s);
  Histogram backward(opts);
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) backward.merge(*it);

  EXPECT_EQ(forward, whole);
  EXPECT_EQ(backward, whole);
  EXPECT_EQ(forward.total_count(), samples.size());
}

TEST(ObsHistogramTest, MergeRejectsMismatchedLayouts) {
  Histogram a(Histogram::Options{1.0, 100.0, 4});
  const Histogram b(Histogram::Options{1.0, 100.0, 8});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  // Merging an empty same-layout histogram is a no-op.
  const Histogram empty(Histogram::Options{1.0, 100.0, 4});
  a.record(5.0);
  a.merge(empty);
  EXPECT_EQ(a.total_count(), 1u);
}

TEST(ObsHistogramTest, QuantilesAndExtremes) {
  Histogram h(Histogram::Options{1.0, 1e4, 8});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_EQ(h.quantile(1.0), 1000.0);  // exact at q=1
  // Interpolated quantiles sit near the true values (log buckets are
  // coarse; a decade/8 bucket can be ~33% wide).
  EXPECT_NEAR(h.quantile(0.5), 500.0, 200.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 200.0);
  // Monotone in q.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.quantile(1.0));
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(ObsHistogramTest, ResetKeepsLayoutAndZerosState) {
  Histogram h(Histogram::Options{1.0, 100.0, 2});
  Histogram pristine = h;
  h.record(5.0);
  h.record(50.0);
  ASSERT_NE(h, pristine);
  h.reset();
  EXPECT_EQ(h, pristine);  // the masking primitive: bitwise back to empty
  EXPECT_EQ(h.total_count(), 0u);
}

TEST(ObsTraceTest, NullRecorderSpansAreNoOps) {
  // Must not crash, read clocks, or record anywhere.
  Span s(nullptr, "phase");
  s.end();
  Span via_default;  // default-constructed == null recorder
  via_default.end();
}

TEST(ObsTraceTest, SpansRecordCompleteEventsOnTheirLanes) {
  TraceRecorder rec;
  rec.set_lane_name(0, "engine");
  rec.set_lane_name(3, "shard 2");
  {
    Span a(&rec, "replan", "engine", 0);
    Span b(&rec, "events", "shard", 3);
    b.end();
    b.end();  // idempotent: a second end() records nothing
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // b ended first, a at scope exit: recording order is completion order.
  EXPECT_EQ(events[0].name, "events");
  EXPECT_EQ(events[0].lane, 3);
  EXPECT_EQ(events[1].name, "replan");
  EXPECT_EQ(events[1].category, "engine");
  EXPECT_EQ(events[1].lane, 0);
  for (const auto& e : events) {
    EXPECT_GE(e.start_us, 0.0);
    EXPECT_GE(e.duration_us, 0.0);
  }
}

TEST(ObsTraceTest, ChromeJsonIsValidAndCarriesMetadataAndSpans) {
  TraceRecorder rec;
  rec.set_lane_name(0, "engine");
  rec.add_complete("solve \"phase 1\"", "lp", 0, 10.0, 5.0);
  rec.add_complete("merge", "", 2, 20.0, 1.0);

  // The exporter promises loadable trace_event JSON; parse it with the
  // repo's own strict parser as the cheapest loadability check.
  const sweep::Json doc = sweep::Json::parse(rec.chrome_json());
  ASSERT_TRUE(doc.has("traceEvents"));
  const sweep::Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 3u);  // 1 thread_name metadata + 2 spans

  const sweep::Json& meta = events.at(0);
  EXPECT_EQ(meta.at("ph").as_string(), "M");
  EXPECT_EQ(meta.at("name").as_string(), "thread_name");
  EXPECT_EQ(meta.at("args").at("name").as_string(), "engine");

  const sweep::Json& span = events.at(1);
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_EQ(span.at("name").as_string(), "solve \"phase 1\"");  // escaping survived
  EXPECT_EQ(span.at("cat").as_string(), "lp");
  EXPECT_DOUBLE_EQ(span.at("ts").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(span.at("dur").as_number(), 5.0);
  // Empty category renders as "default" (Perfetto dislikes empty cats).
  EXPECT_EQ(events.at(2).at("cat").as_string(), "default");
}

}  // namespace
}  // namespace titan::obs
