// Tests for the closed-loop simulation subsystem: the event stream, the
// event queue, the sharded executor, the scenario library (including
// flash-crowd injection), per-slot metric sinks, and — the core guarantee —
// bit-identical results across worker-thread counts for a fixed seed.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>

#include "sim/engine.h"
#include "sim/executor.h"
#include "workload/event_stream.h"

namespace titan::sim {
namespace {

// A deliberately small scenario that still exercises the full loop:
// several replans, a fiber cut, and a DC drain inside two simulated days.
Scenario small_scenario() {
  Scenario s = make_scenario("steady-week");
  s.training_weeks = 2;
  s.eval_days = 1;
  s.peak_slot_calls = 40.0;
  s.shards = 8;
  s.oracle_counts = true;  // skip Holt-Winters; planning stays identical
  s.replan_interval_slots = 12;
  s.pipeline.scope.timeslots = 12;
  s.pipeline.scope.max_reduced_configs = 20;
  return s;
}

// --- event stream -------------------------------------------------------

TEST(EventStreamTest, SortedAndComplete) {
  const geo::World world = geo::World::make();
  workload::TraceOptions topts;
  topts.weeks = 1;
  topts.peak_slot_calls = 30.0;
  const auto trace = workload::TraceGenerator(world).generate(topts);
  const auto events = workload::build_event_stream(trace);

  ASSERT_EQ(events.size(), trace.calls().size() * 3);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_FALSE(events[i] < events[i - 1]) << "stream not sorted at " << i;

  // Every call contributes one event of each kind; ends are clamped.
  std::vector<int> seen(trace.calls().size(), 0);
  for (const auto& e : events) {
    seen[e.call_index] |= 1 << static_cast<int>(e.kind);
    EXPECT_LE(e.slot, trace.num_slots());
    if (e.kind == workload::CallEventKind::kArrival) {
      EXPECT_EQ(e.slot, trace.calls()[e.call_index].start_slot);
    }
  }
  for (const int mask : seen) EXPECT_EQ(mask, 0b111);
}

TEST(EventStreamTest, EndOrdersBeforeArrivalInSameSlot) {
  const workload::CallEvent end{5, workload::CallEventKind::kEnd, 9};
  const workload::CallEvent arrival{5, workload::CallEventKind::kArrival, 1};
  const workload::CallEvent convergence{5, workload::CallEventKind::kConvergence, 0};
  EXPECT_LT(end, arrival);
  EXPECT_LT(arrival, convergence);

  EventQueue q;
  q.push(convergence);
  q.push(arrival);
  q.push(end);
  EXPECT_TRUE(q.due(5));
  EXPECT_EQ(q.pop().kind, workload::CallEventKind::kEnd);
  EXPECT_EQ(q.pop().kind, workload::CallEventKind::kArrival);
  EXPECT_EQ(q.pop().kind, workload::CallEventKind::kConvergence);
  EXPECT_TRUE(q.empty());
}

TEST(EventStreamTest, ConvergenceDelayDefersConvergence) {
  const geo::World world = geo::World::make();
  workload::TraceOptions topts;
  topts.weeks = 1;
  topts.peak_slot_calls = 30.0;
  const auto trace = workload::TraceGenerator(world).generate(topts);
  const auto events = workload::build_event_stream(trace, 2);

  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_FALSE(events[i] < events[i - 1]) << "stream not sorted at " << i;
  for (const auto& e : events) {
    if (e.kind != workload::CallEventKind::kConvergence) continue;
    const auto& call = trace.calls()[e.call_index];
    EXPECT_EQ(e.slot, std::min(call.start_slot + 2, trace.num_slots()));
  }
}

// --- executor -----------------------------------------------------------

TEST(ExecutorTest, RunsEveryShardExactlyOnce) {
  for (const int threads : {1, 3, 8}) {
    ShardedExecutor exec(16, threads);
    std::vector<std::atomic<int>> hits(16);
    for (auto& h : hits) h = 0;
    for (int round = 0; round < 3; ++round) {
      exec.run([&](int shard) { ++hits[static_cast<std::size_t>(shard)]; });
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 3) << "threads=" << threads;
  }
}

TEST(ExecutorTest, ShardOfIsThreadCountIndependent) {
  // Pure function of (id, num_shards) — trivially, but pin the contract.
  for (std::int64_t id : {0LL, 1LL, 12345LL, 99999999LL}) {
    const int a = shard_of(core::CallId(id), 16);
    const int b = shard_of(core::CallId(id), 16);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 16);
  }
}

// --- scenario library ---------------------------------------------------

TEST(ScenarioTest, LibraryRoundTripsByName) {
  for (const auto& name : scenario_names()) {
    const Scenario s = make_scenario(name);
    EXPECT_EQ(s.name, name);
    EXPECT_GT(s.eval_days, 0);
    EXPECT_FALSE(s.description.empty());
  }
  EXPECT_THROW((void)make_scenario("no-such-scenario"), std::invalid_argument);
}

TEST(ScenarioTest, WeekendTransitionStartsOnFriday) {
  const Scenario s = make_scenario("weekend-transition");
  // The eval window starts eval_offset_days after a Monday.
  EXPECT_EQ(core::weekday_of(s.history_slots()), core::Weekday::kFriday);
}

TEST(ScenarioTest, FlashCrowdInjectsSurgeCalls) {
  Scenario s = make_scenario("flash-crowd");
  s.training_weeks = 1;
  s.eval_days = 2;
  s.peak_slot_calls = 60.0;
  const geo::World world = geo::World::make();

  Scenario calm = s;
  calm.surges.clear();
  const auto with = build_workload(s, world);
  const auto without = build_workload(calm, world);
  ASSERT_GT(with.eval.calls().size(), without.eval.calls().size());

  // Surge clones sit inside the window, in the surge country, and roughly
  // (factor - 1)x the matching originals.
  const auto& surge = s.surges.front();
  const auto region = world.find_country(surge.country);
  const int begin = surge.day * core::kSlotsPerDay + surge.begin_slot_in_day;
  const int end = surge.day * core::kSlotsPerDay + surge.end_slot_in_day;
  auto count_matching = [&](const workload::Trace& t) {
    std::size_t n = 0;
    for (const auto& c : t.calls())
      n += c.start_slot >= begin && c.start_slot < end && c.first_joiner == region;
    return n;
  };
  const auto base = count_matching(without.eval);
  const auto surged = count_matching(with.eval);
  ASSERT_GT(base, 0u);
  EXPECT_NEAR(static_cast<double>(surged), surge.factor * static_cast<double>(base),
              0.25 * surge.factor * static_cast<double>(base));
  // Everything outside the surge is untouched.
  EXPECT_EQ(with.eval.calls().size() - without.eval.calls().size(), surged - base);

  // Trace invariants survive assembly: the per-slot index matches.
  for (int slot = 0; slot < with.eval.num_slots(); ++slot)
    for (const auto idx : with.eval.calls_starting_in(slot))
      EXPECT_EQ(with.eval.calls()[idx].start_slot, slot);
}

// --- per-slot sink ------------------------------------------------------

TEST(SlotMetricsTest, WanUsageTakesPerDayPeaks) {
  eval::SlotMetricsSink sink(2 * core::kSlotsPerDay, 2);
  // Link 0: peak 10 on day 0, peak 4 on day 1. Link 1: flat 1 all along.
  sink.add_wan_mbps(3, core::LinkId(0), 10.0);
  sink.add_wan_mbps(50, core::LinkId(0), 4.0);
  for (int s = 0; s < 2 * core::kSlotsPerDay; ++s) sink.add_wan_mbps(s, core::LinkId(1), 1.0);
  const auto usage = sink.wan_usage();
  ASSERT_EQ(usage.per_day_sum_of_peaks_mbps.size(), 2u);
  EXPECT_DOUBLE_EQ(usage.per_day_sum_of_peaks_mbps[0], 11.0);
  EXPECT_DOUBLE_EQ(usage.per_day_sum_of_peaks_mbps[1], 5.0);
  EXPECT_DOUBLE_EQ(usage.sum_of_peaks_mbps, 11.0);
  EXPECT_DOUBLE_EQ(sink.link_peak_mbps(core::LinkId(0)), 10.0);
}

TEST(SlotMetricsTest, MergeIsElementwise) {
  eval::SlotMetricsSink a(4, 1), b(4, 1);
  a.add_arrival(0);
  a.add_participants(0, 1, 2);
  b.add_arrival(0);
  b.add_participants(0, 1, 2);
  b.add_mos(2, 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.arrivals()[0], 2.0);
  EXPECT_DOUBLE_EQ(a.internet_share_per_slot()[0], 0.5);
  EXPECT_DOUBLE_EQ(a.mean_mos_per_slot()[2], 4.0);
}

// --- the core guarantee: thread-count determinism -----------------------

TEST(SimDeterminismTest, IdenticalResultsAtOneTwoAndEightThreads) {
  SimEngine engine(small_scenario());
  const auto r1 = engine.run(1);
  const auto r2 = engine.run(2);
  const auto r8 = engine.run(8);

  for (const auto* r : {&r2, &r8}) {
    EXPECT_EQ(r->checksum, r1.checksum);
    EXPECT_EQ(r->calls, r1.calls);
    EXPECT_EQ(r->dc_migrations, r1.dc_migrations);
    EXPECT_EQ(r->route_changes, r1.route_changes);
    EXPECT_EQ(r->out_of_plan, r1.out_of_plan);
    EXPECT_EQ(r->fallback_assignments, r1.fallback_assignments);
    // Bit-identical floating-point aggregates, not just "close".
    EXPECT_EQ(r->wan.sum_of_peaks_mbps, r1.wan.sum_of_peaks_mbps);
    EXPECT_EQ(r->wan.total_traffic_gb, r1.wan.total_traffic_gb);
    EXPECT_EQ(r->internet_share, r1.internet_share);
    EXPECT_EQ(r->mean_mos, r1.mean_mos);
    const auto wan1 = r1.streams.wan_total_mbps_per_slot();
    const auto wanN = r->streams.wan_total_mbps_per_slot();
    EXPECT_EQ(wanN, wan1);
  }
  EXPECT_GT(r1.calls, 0);
  EXPECT_GT(r1.replans, 1);
}

TEST(SimDeterminismTest, DisturbedScenarioIsAlsoThreadCountInvariant) {
  Scenario s = small_scenario();
  s.name = "disturbed-small";
  Disturbance cut;
  cut.kind = NetworkEventKind::kFiberCut;
  cut.day = 0;
  cut.slot_in_day = 18;
  cut.country = "france";
  cut.dc = "netherlands";
  s.disturbances.push_back(cut);
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 0;
  drain.slot_in_day = 22;
  drain.dc = "netherlands";
  s.disturbances.push_back(drain);

  SimEngine engine(s);
  const auto r1 = engine.run(1);
  const auto r8 = engine.run(8);
  EXPECT_EQ(r1.checksum, r8.checksum);
  EXPECT_EQ(r1.wan.sum_of_peaks_mbps, r8.wan.sum_of_peaks_mbps);
  EXPECT_EQ(r1.forced_migrations, r8.forced_migrations);
  ASSERT_EQ(r1.severed_links.size(), 1u);
}

TEST(SimDeterminismTest, RunsAreRepeatable) {
  // The same engine run twice resets all mutable state (network, plans).
  SimEngine engine(small_scenario());
  const auto a = engine.run(2);
  const auto b = engine.run(2);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.wan.sum_of_peaks_mbps, b.wan.sum_of_peaks_mbps);
}

// --- closed-loop behaviour ----------------------------------------------

TEST(SimEngineTest, SteadyScenarioProducesSaneMetrics) {
  SimEngine engine(small_scenario());
  const auto r = engine.run(2);
  EXPECT_EQ(r.calls, static_cast<std::int64_t>(engine.eval_trace().calls().size()));
  EXPECT_EQ(r.replans, 4);  // 48 slots / 12-slot interval
  EXPECT_GT(r.wan.sum_of_peaks_mbps, 0.0);
  EXPECT_GT(r.internet_share, 0.0);
  EXPECT_LT(r.internet_share, 0.6);
  EXPECT_GE(r.mean_mos, 1.0);
  EXPECT_LE(r.mean_mos, 5.0);
  // Streams cover every slot; arrivals total the call count.
  const double arrivals = std::accumulate(r.streams.arrivals().begin(),
                                          r.streams.arrivals().end(), 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(arrivals), r.calls);
}

TEST(SimEngineTest, FiberCutSilencesTheSeveredLink) {
  Scenario s = small_scenario();
  s.name = "cut-small";
  Disturbance cut;
  cut.kind = NetworkEventKind::kFiberCut;
  cut.day = 0;
  cut.slot_in_day = 20;
  cut.country = "france";
  cut.dc = "netherlands";
  s.disturbances.push_back(cut);

  SimEngine engine(s);
  const auto r = engine.run(2);
  ASSERT_EQ(r.severed_links.size(), 1u);
  const auto [cut_slot, link] = r.severed_links.front();
  EXPECT_EQ(cut_slot, 20);
  // Rerouting + evacuation: no WAN traffic rides the dead fiber afterwards.
  for (int slot = cut_slot + 1; slot < r.eval_slots; ++slot)
    EXPECT_EQ(r.streams.link_mbps_at(slot, link), 0.0) << "slot " << slot;
}

TEST(SimEngineTest, FiberCutSurgesInternetFractionsOfAffectedPairs) {
  Scenario s = small_scenario();
  s.name = "cut-surge-small";
  // A longer post-cut window than the other small tests, so the surged
  // offload dominates noise.
  s.eval_days = 2;
  s.peak_slot_calls = 60.0;
  s.replan_interval_slots = 24;
  s.pipeline.scope.timeslots = 24;
  Disturbance cut;
  cut.kind = NetworkEventKind::kFiberCut;
  cut.day = 0;
  cut.slot_in_day = 18;
  cut.country = "france";
  cut.dc = "netherlands";
  s.disturbances.push_back(cut);

  // With the emergency surge neutralized (surge == calm cap) the loop must
  // offload strictly less than with the real surge response.
  Scenario no_surge = s;
  no_surge.fiber_cut_surge_fraction = no_surge.titan_fraction_cap;
  const auto with = SimEngine(s).run(2);
  const auto without = SimEngine(no_surge).run(2);
  EXPECT_GT(with.internet_share, without.internet_share);
}

TEST(SimEngineTest, ForecastBiasChangesPlansCoveringItsWindow) {
  Scenario s = small_scenario();
  s.name = "bias-small";
  Disturbance bias;
  bias.kind = NetworkEventKind::kForecastBias;
  bias.day = 0;
  bias.slot_in_day = 18;
  bias.duration_slots = 6;
  bias.magnitude = 0.5;
  s.disturbances.push_back(bias);
  s.oracle_counts = true;  // bias applies to oracle counts too

  Scenario unbiased = s;
  unbiased.disturbances.clear();
  const auto with = SimEngine(s).run(2);
  const auto without = SimEngine(unbiased).run(2);
  // Under-forecasting the window must change the plans and hence decisions.
  EXPECT_NE(with.checksum, without.checksum);
}

TEST(SimEngineTest, DcDrainEvacuatesActiveCalls) {
  Scenario s = small_scenario();
  s.name = "drain-small";
  s.peak_slot_calls = 60.0;
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 0;
  drain.slot_in_day = 21;  // mid business morning: calls are in flight
  drain.dc = "netherlands";
  s.disturbances.push_back(drain);

  SimEngine engine(s);
  const auto r = engine.run(2);
  EXPECT_GT(r.forced_migrations, 0);
}

TEST(SimEngineTest, DrainWindowRestoresTheDc) {
  Scenario s = small_scenario();
  s.name = "drain-window-small";
  s.peak_slot_calls = 60.0;
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 0;
  drain.slot_in_day = 18;
  drain.duration_slots = 6;  // a 3-hour maintenance window
  drain.dc = "netherlands";
  s.disturbances.push_back(drain);

  Scenario open_ended = s;
  open_ended.disturbances[0].duration_slots = -1;
  const auto windowed = SimEngine(s).run(2);
  const auto permanent = SimEngine(open_ended).run(2);
  // The restored DC serves again: the closed window must diverge from the
  // permanent drain.
  EXPECT_NE(windowed.checksum, permanent.checksum);
}

TEST(SimEngineTest, LinkDisturbanceWindowsAreRejected) {
  Scenario s = small_scenario();
  Disturbance cut;
  cut.kind = NetworkEventKind::kFiberCut;
  cut.country = "france";
  cut.dc = "netherlands";
  cut.duration_slots = 8;  // fiber does not heal within a sim
  s.disturbances.push_back(cut);
  EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
}

TEST(SimEngineTest, MalformedDisturbancesAreRejected) {
  {
    Scenario s = small_scenario();
    Disturbance d;
    d.kind = NetworkEventKind::kTransitDegrade;
    d.country = "france";  // no dc: nothing to resolve the transit against
    d.magnitude = 0.03;
    s.disturbances.push_back(d);
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  {
    Scenario s = small_scenario();
    Disturbance d;
    d.kind = NetworkEventKind::kTransitDegrade;
    d.dc = "netherlands";
    d.magnitude = 0.0;  // a degrade that adds no loss is a no-op, reject it
    s.disturbances.push_back(d);
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  {
    Scenario s = small_scenario();
    Disturbance d;
    d.kind = NetworkEventKind::kDcDrain;
    d.dc = "netherlands";
    d.magnitude = 1.5;  // drains shrink capacity; >= 1 is not a drain
    s.disturbances.push_back(d);
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  {
    Scenario s = small_scenario();
    Disturbance d;
    d.kind = NetworkEventKind::kDcDrain;  // no dc: nothing to drain
    d.magnitude = 0.5;
    s.disturbances.push_back(d);
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  {
    Scenario s = small_scenario();
    Disturbance d;
    d.kind = NetworkEventKind::kFiberCut;  // no country/dc: no path to cut
    s.disturbances.push_back(d);
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
}

// Windowed disturbances synthesize a restore event that resets the target
// outright, so two overlapping windows on one target would cancel each
// other mid-flight; the engine rejects them. Disjoint windows (rolling
// maintenance) and overlaps on different targets stay legal.
TEST(SimEngineTest, OverlappingWindowsOnOneTargetAreRejected) {
  auto drain = [](int slot, int duration, const char* dc, double magnitude) {
    Disturbance d;
    d.kind = NetworkEventKind::kDcDrain;
    d.slot_in_day = slot;
    d.duration_slots = duration;
    d.dc = dc;
    d.magnitude = magnitude;
    return d;
  };
  {
    Scenario s = small_scenario();
    s.disturbances = {drain(10, 10, "netherlands", 0.5), drain(15, 10, "netherlands", 0.5)};
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  {
    Scenario s = small_scenario();  // open-ended, then windowed on the same DC
    s.disturbances = {drain(10, -1, "netherlands", 0.0), drain(20, 5, "netherlands", 0.5)};
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  {
    Scenario s = small_scenario();  // same slots, different DCs: fine
    s.disturbances = {drain(10, 10, "netherlands", 0.5), drain(15, 10, "ireland", 0.5)};
    SimEngine engine(s);
    EXPECT_EQ(engine.run(2).leaked_calls, 0);
  }
  {
    Scenario s = small_scenario();  // two degrades of one (country, dc) transit
    Disturbance d;
    d.kind = NetworkEventKind::kTransitDegrade;
    d.slot_in_day = 10;
    d.duration_slots = 10;
    d.country = "france";
    d.dc = "netherlands";
    d.magnitude = 0.03;
    s.disturbances.push_back(d);
    d.slot_in_day = 15;
    s.disturbances.push_back(d);
    EXPECT_THROW(SimEngine engine(s), std::invalid_argument);
  }
  EXPECT_NO_THROW(SimEngine engine(make_scenario("rolling-maintenance")));
}

// --- call-lifecycle regressions -----------------------------------------

// With a one-slot convergence delay, every one-slot call (the majority
// shape) has its kEnd and kConvergence due in the same slot — and kEnd
// orders first. The convergence handler must treat the erased pending
// entry as "call already over", not dereference pending.end() and
// resurrect the call into the active set, where it would accrue WAN and
// Internet usage forever.
TEST(SimLifecycleTest, SameSlotEndAndConvergenceDoesNotResurrect) {
  Scenario s = small_scenario();
  s.name = "same-slot-end-conv";
  s.convergence_delay_slots = 1;

  SimEngine engine(s);
  const auto r1 = engine.run(1);
  const auto r8 = engine.run(8);
  EXPECT_EQ(r1.leaked_calls, 0);
  EXPECT_EQ(r8.leaked_calls, 0);
  EXPECT_EQ(r1.checksum, r8.checksum);
  EXPECT_GT(r1.calls, 0);
  // Two-slot calls still converge and carry media for their second slot.
  EXPECT_GT(r1.wan.sum_of_peaks_mbps, 0.0);
}

// A delay longer than every call duration means each call ends while still
// pending: nothing may ever graduate to the active set, so no usage, no
// migrations, no leaks.
TEST(SimLifecycleTest, CallsEndingWhilePendingNeverActivate) {
  Scenario s = small_scenario();
  s.name = "end-before-convergence";
  s.convergence_delay_slots = 3;  // generated calls last 1 or 2 slots

  SimEngine engine(s);
  const auto r = engine.run(2);
  EXPECT_GT(r.calls, 0);
  EXPECT_EQ(r.leaked_calls, 0);
  EXPECT_EQ(r.dc_migrations, 0);
  EXPECT_EQ(r.route_changes, 0);
  EXPECT_EQ(r.wan.sum_of_peaks_mbps, 0.0);
  EXPECT_EQ(r.internet_share, 0.0);
}

// A drain injected between arrival and convergence: with the convergence
// delay pushed past the eval window, the active set stays empty for the
// whole run, so any forced migration can only come from the evacuation
// wave walking the *pending* set. (Before the fix, pending calls kept
// initial assignments pointing at the drained DC.)
TEST(SimLifecycleTest, PendingCallsEvacuateOnDrain) {
  Scenario s = small_scenario();
  s.name = "pending-evacuation";
  s.peak_slot_calls = 80.0;
  s.convergence_delay_slots = 10000;  // nobody converges inside the window
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 0;
  drain.slot_in_day = 21;  // mid business morning: arrivals are in flight
  drain.dc = "netherlands";
  s.disturbances.push_back(drain);

  SimEngine engine(s);
  const auto r1 = engine.run(1);
  const auto r8 = engine.run(8);
  EXPECT_GT(r1.forced_migrations, 0);
  EXPECT_EQ(r1.leaked_calls, 0);
  EXPECT_EQ(r1.checksum, r8.checksum);
  EXPECT_EQ(r1.forced_migrations, r8.forced_migrations);
  // Evacuations happen at (or after) the drain slot, never before.
  const auto& stream = r1.streams.forced_migrations();
  for (int slot = 0; slot < 21; ++slot) EXPECT_EQ(stream[static_cast<std::size_t>(slot)], 0.0);
}

// --- overlapping surges -------------------------------------------------

// Two identical overlapping surges must make independent fractional-clone
// decisions. With the surge index missing from the RNG key, both surges
// clone exactly the same subset, so per-slot extra volume is exactly twice
// a single surge's — detectably wrong for a x1.5 surge where each draw is
// a fair coin per call.
TEST(ScenarioTest, OverlappingSurgesCloneIndependently) {
  Scenario base = make_scenario("steady-week");
  base.training_weeks = 1;
  base.eval_days = 2;
  base.peak_slot_calls = 60.0;
  SurgeSpec surge;
  surge.day = 1;
  surge.begin_slot_in_day = 18;
  surge.end_slot_in_day = 26;
  surge.country = "france";
  surge.factor = 1.5;  // fractional: clone with probability one-half

  Scenario one = base;
  one.surges.push_back(surge);
  Scenario two = base;
  two.surges.push_back(surge);
  two.surges.push_back(surge);

  const geo::World world = geo::World::make();
  const auto base_wl = build_workload(base, world);
  const auto one_wl = build_workload(one, world);
  const auto two_wl = build_workload(two, world);

  const auto region = world.find_country(surge.country);
  const int begin = surge.day * core::kSlotsPerDay + surge.begin_slot_in_day;
  const int end = surge.day * core::kSlotsPerDay + surge.end_slot_in_day;
  auto per_slot = [&](const workload::Trace& t) {
    std::vector<int> counts(static_cast<std::size_t>(end - begin), 0);
    for (const auto& c : t.calls())
      if (c.start_slot >= begin && c.start_slot < end && c.first_joiner == region)
        ++counts[static_cast<std::size_t>(c.start_slot - begin)];
    return counts;
  };
  const auto calm = per_slot(base_wl.eval);
  const auto once = per_slot(one_wl.eval);
  const auto twice = per_slot(two_wl.eval);

  // Both runs add surge volume in the window.
  int calm_total = 0, once_extra = 0, twice_extra = 0;
  for (std::size_t i = 0; i < calm.size(); ++i) {
    calm_total += calm[i];
    once_extra += once[i] - calm[i];
    twice_extra += twice[i] - calm[i];
  }
  ASSERT_GT(calm_total, 20);
  EXPECT_NEAR(once_extra, 0.5 * calm_total, 0.30 * calm_total);
  EXPECT_NEAR(twice_extra, 1.0 * calm_total, 0.30 * calm_total);

  // Independence: correlated draws would make the two-surge extra exactly
  // double the one-surge extra in *every* slot. Some slot must differ.
  bool any_slot_differs = false;
  for (std::size_t i = 0; i < calm.size(); ++i)
    any_slot_differs |= (twice[i] - calm[i]) != 2 * (once[i] - calm[i]);
  EXPECT_TRUE(any_slot_differs)
      << "overlapping surges cloned a perfectly correlated subset";
}

// --- partial / rolling drains -------------------------------------------

TEST(ScenarioTest, RollingMaintenanceSchedulesSequentialWindows) {
  const Scenario s = make_scenario("rolling-maintenance");
  ASSERT_EQ(s.disturbances.size(), 3u);
  int prev_end = -1;
  for (const auto& d : s.disturbances) {
    EXPECT_EQ(d.kind, NetworkEventKind::kDcDrain);
    EXPECT_DOUBLE_EQ(d.magnitude, 0.5);
    ASSERT_GT(d.duration_slots, 0);
    const int begin = d.day * core::kSlotsPerDay + d.slot_in_day;
    EXPECT_GT(begin, prev_end) << "maintenance phases must not overlap";
    prev_end = begin + d.duration_slots;
  }
  // Each phase drains a different DC.
  EXPECT_NE(s.disturbances[0].dc, s.disturbances[1].dc);
  EXPECT_NE(s.disturbances[1].dc, s.disturbances[2].dc);
}

// A half drain evacuates roughly half the calls a full drain would, since
// the evacuated subset is a fair per-call draw at the drain magnitude.
TEST(SimEngineTest, PartialDrainEvacuatesProportionalSubset) {
  Scenario s = small_scenario();
  s.name = "partial-drain";
  s.peak_slot_calls = 150.0;
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 0;
  drain.slot_in_day = 22;  // 11:00, peak active population
  drain.dc = "netherlands";

  Scenario full = s;
  drain.magnitude = 0.0;
  full.disturbances.push_back(drain);
  Scenario half = s;
  half.name = "partial-drain-half";
  drain.magnitude = 0.5;
  half.disturbances.push_back(drain);

  const auto rf = SimEngine(full).run(2);
  const auto rh = SimEngine(half).run(2);
  ASSERT_GT(rf.forced_migrations, 20);
  // Binomial(n, 1/2) around half the full evacuation; 4 sigma of slack.
  const double n = static_cast<double>(rf.forced_migrations);
  EXPECT_NEAR(static_cast<double>(rh.forced_migrations), 0.5 * n, 4.0 * std::sqrt(0.25 * n));
  EXPECT_EQ(rh.leaked_calls, 0);

  // The partial drain halves plan capacity but keeps the DC alive: later
  // arrivals may still land there, so the half-drain run keeps serving
  // calls (no starvation) and stays deterministic across thread counts.
  const auto rh8 = SimEngine(half).run(8);
  EXPECT_EQ(rh.checksum, rh8.checksum);
}

// --- transit degrade + steering -----------------------------------------

TEST(SimEngineTest, TransitDegradeDrivesFailoverAndRecovery) {
  Scenario s = small_scenario();
  s.name = "degrade-small";
  s.peak_slot_calls = 250.0;  // enough Internet calls on the homed pairs
  Disturbance degrade;
  degrade.kind = NetworkEventKind::kTransitDegrade;
  degrade.day = 0;
  // Noon, aligned with a plan boundary (replan_interval 12): the whole
  // degrade sits inside one plan window, so no mid-degrade replan
  // reshuffles which pairs carry traffic on the congested transit — the
  // one-shot recovery assertion below needs that stability.
  degrade.slot_in_day = 24;
  degrade.duration_slots = 8;  // four congested hours
  degrade.country = "france";
  degrade.dc = "netherlands";
  degrade.magnitude = 0.05;  // 5% added loss, far past the 1% failover bar
  Scenario disturbed = s;
  disturbed.disturbances.push_back(degrade);

  SimEngine engine(disturbed);
  const auto r = engine.run(2);
  const auto calm = SimEngine(s).run(2);

  auto window_sum = [&](const std::vector<double>& v, int begin, int end) {
    double sum = 0.0;
    for (int i = begin; i < end; ++i) sum += v[static_cast<std::size_t>(i)];
    return sum;
  };

  // Route failovers (Internet -> WAN) fire during the degrade window, and
  // the engine answers §4.2-finding-6 style: pairs whose failover traced
  // to the congested transit are steered to an alternate provider — more
  // steering than background episodes alone produce, starting the moment
  // the degrade fires.
  EXPECT_GT(window_sum(r.streams.route_changes(), 24, 32), 0.0);
  const auto& steer = r.streams.transit_failovers();
  EXPECT_GT(window_sum(steer, 24, 32), window_sum(calm.streams.transit_failovers(), 24, 32));
  EXPECT_GT(window_sum(steer, 24, 26), 0.0);

  // Recovery: steering is one-shot per pair, so once the homed pairs with
  // traffic have moved off the congested transit, the back half of the
  // window steers no more than the front half (the fire is out).
  EXPECT_LE(window_sum(steer, 28, 32), window_sum(steer, 24, 28));

  // Determinism holds with the engine-level steering stream in play.
  const auto r8 = engine.run(8);
  EXPECT_EQ(r.checksum, r8.checksum);
  EXPECT_EQ(r.transit_failovers, r8.transit_failovers);
}

// --- multi-region scopes ------------------------------------------------

// The cross_region_fraction knob: among the multi-participant calls of the
// global scope, roughly the requested share spans two continents; a
// single-region scope emits none.
TEST(ScenarioTest, GlobalScopeEmitsCrossRegionCalls) {
  const geo::World world = geo::World::make();
  Scenario global = make_scenario("global-steady-week");
  global.training_weeks = 1;
  global.eval_days = 3;
  global.peak_slot_calls = 80.0;
  ASSERT_DOUBLE_EQ(global.cross_region_fraction, 0.15);

  const auto spans_continents = [&](const workload::CallConfig& config) {
    std::set<geo::Continent> continents;
    for (const auto& [country, count] : config.participants)
      continents.insert(world.country(country).continent);
    return continents.size() > 1;
  };
  const auto count_cross = [&](const workload::Trace& trace, std::size_t& multi,
                               std::size_t& cross) {
    for (const auto& call : trace.calls()) {
      const auto& config = trace.configs().get(call.config);
      int participants = 0;
      for (const auto& [country, count] : config.participants) participants += count;
      if (participants < 2) continue;
      ++multi;
      cross += spans_continents(config);
    }
  };

  std::size_t multi = 0, cross = 0;
  count_cross(build_workload(global, world).eval, multi, cross);
  ASSERT_GT(multi, 500u);
  EXPECT_NEAR(static_cast<double>(cross) / static_cast<double>(multi),
              global.cross_region_fraction, 0.04);

  // The single-region library scenarios stay continent-contained.
  std::size_t eu_multi = 0, eu_cross = 0;
  Scenario eu = small_scenario();
  count_cross(build_workload(eu, geo::World::make()).eval, eu_multi, eu_cross);
  ASSERT_GT(eu_multi, 0u);
  EXPECT_EQ(eu_cross, 0u);
}

// Region slices partition the totals: a single-region scenario books every
// arrival and every WAN byte to its one continent; the global scope books
// arrivals to exactly the three planning regions.
TEST(SimEngineTest, RegionSlicesPartitionTotals) {
  SimEngine engine(small_scenario());
  const auto r = engine.run(2);
  EXPECT_EQ(r.calls_by_region[static_cast<std::size_t>(geo::Continent::kEurope)], r.calls);
  EXPECT_GT(r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kEurope)], 0.0);
  for (int region = 0; region < geo::kNumContinents; ++region) {
    if (region == static_cast<int>(geo::Continent::kEurope)) continue;
    EXPECT_EQ(r.calls_by_region[static_cast<std::size_t>(region)], 0);
    EXPECT_EQ(r.wan_gb_by_region[static_cast<std::size_t>(region)], 0.0);
  }

  Scenario global = make_scenario("global-steady-week");
  global.training_weeks = 1;
  global.eval_days = 1;
  global.peak_slot_calls = 40.0;
  global.shards = 8;
  global.oracle_counts = true;
  global.replan_interval_slots = 12;
  global.pipeline.scope.timeslots = 12;
  global.pipeline.scope.max_reduced_configs = 20;
  const auto g = SimEngine(global).run(2);
  std::int64_t total = 0;
  for (const auto n : g.calls_by_region) total += n;
  EXPECT_EQ(total, g.calls);
  for (const auto region : {geo::Continent::kNorthAmerica, geo::Continent::kEurope,
                            geo::Continent::kAsia})
    EXPECT_GT(g.calls_by_region[static_cast<std::size_t>(region)], 0)
        << geo::continent_name(region);
  EXPECT_EQ(g.calls_by_region[static_cast<std::size_t>(geo::Continent::kAfrica)], 0);
}

// The headline multi-region behaviour: when the NA fleet goes dark, its
// in-flight calls land on European DCs — EU in-flight strictly exceeds the
// undisturbed control run's during the cut window, NA in-flight drops to
// zero, and everything restores afterwards. Asserted on the per-region
// slot metrics, not eyeballed in bench output.
TEST(SimEngineTest, NaCutShiftsServingLoadToEurope) {
  Scenario s = make_scenario("na-cut-shifts-to-eu");
  s.training_weeks = 1;
  s.eval_days = 4;  // the outage spans day 2, slots 18..26
  s.peak_slot_calls = 60.0;
  s.shards = 8;
  s.oracle_counts = true;
  s.replan_interval_slots = 12;
  s.pipeline.scope.timeslots = 12;
  s.pipeline.scope.max_reduced_configs = 20;

  Scenario control = s;
  control.disturbances.clear();

  SimEngine engine(s);
  const auto cut = engine.run(2);
  const auto calm = SimEngine(control).run(2);
  EXPECT_EQ(cut.leaked_calls, 0);
  EXPECT_GT(cut.forced_migrations, 0);

  const int begin = 2 * core::kSlotsPerDay + 18;
  const int end = 2 * core::kSlotsPerDay + 26;
  const auto eu_cut = cut.streams.region_active_calls(geo::Continent::kEurope);
  const auto eu_calm = calm.streams.region_active_calls(geo::Continent::kEurope);
  const auto na_cut = cut.streams.region_active_calls(geo::Continent::kNorthAmerica);
  double eu_cut_window = 0.0, eu_calm_window = 0.0;
  for (int slot = begin; slot < end; ++slot) {
    eu_cut_window += eu_cut[static_cast<std::size_t>(slot)];
    eu_calm_window += eu_calm[static_cast<std::size_t>(slot)];
    // Every NA DC is fully drained: nothing can be *hosted* in NA.
    EXPECT_EQ(na_cut[static_cast<std::size_t>(slot)], 0.0) << "slot " << slot;
  }
  EXPECT_GT(eu_cut_window, eu_calm_window)
      << "the NA outage must shift in-flight calls onto European DCs";

  // The WAN GB slice tells the same story over the whole window.
  EXPECT_GT(cut.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kEurope)],
            calm.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kEurope)]);
  EXPECT_LT(cut.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kNorthAmerica)],
            calm.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kNorthAmerica)]);

  // After the restore the NA fleet serves again.
  double na_after = 0.0;
  for (int slot = end; slot < cut.eval_slots; ++slot)
    na_after += na_cut[static_cast<std::size_t>(slot)];
  EXPECT_GT(na_after, 0.0);
}

// --- warm-started replans -----------------------------------------------

// At the test/golden cadence the replan windows are disjoint (interval ==
// horizon): the warm-start cache transfers nothing and every replan takes
// the byte-identical cold path, so flipping the knob must not move a
// single bit of the SimResult. (The rolling-cadence case, where warm
// replans do engage and save iterations, is pinned in titannext_test.)
TEST(SimWarmReplanTest, DisjointWindowsMakeWarmAndColdRunsIdentical) {
  Scenario warm = small_scenario();
  ASSERT_TRUE(warm.warm_replans);  // the library default
  Scenario cold = small_scenario();
  cold.warm_replans = false;

  auto rw = SimEngine(warm).run(2);
  auto rc = SimEngine(cold).run(2);
  EXPECT_EQ(rw.checksum, rc.checksum);
  for (const auto& stat : rw.replan_stats) EXPECT_FALSE(stat.warm_started);
  ASSERT_EQ(rw.replan_stats.size(), rc.replan_stats.size());
  for (std::size_t i = 0; i < rw.replan_stats.size(); ++i)
    EXPECT_EQ(rw.replan_stats[i].iterations, rc.replan_stats[i].iterations) << "replan " << i;
  rw.zero_wallclock();
  rc.zero_wallclock();
  EXPECT_TRUE(rw == rc);
}

// --- golden checksums ---------------------------------------------------

// Frozen per-scenario checksums at a small fixed volume, asserted at 1, 2,
// and 8 worker threads: a determinism regression (or any behavioural
// drift) fails ctest, not just the benches. Regenerate by running this
// test and copying the "actual" values it prints on mismatch.
struct GoldenChecksum {
  const char* name;
  std::uint64_t checksum;
};

// All 12 entries were regenerated when the smooth-WRR credit-carryover
// bugfix landed: credit state now survives each replan's plan swap instead
// of restarting from zero, so every scenario's pick sequence changes after
// its first replan (the refactor to flat credit/recent-config state was
// verified bit-identical with the carry disabled before regenerating).
// Six entries (fiber-cut-failover, dc-drain, rolling-maintenance,
// cut-then-flash-crowd, regional-catastrophe, cascading-drain) were
// regenerated when the warm dual phase replaced primal restoration: their
// disturbance-forced replans repair damaged warm seeds, and the dual phase
// can stop at another vertex of the optimal face. All 15 were regenerated
// when cold solves moved from primal phase 1 onto the dual phase: every
// plan LP reaches the same optimal objective (checked within 1e-9
// relative against the old path on every library replan) at another
// vertex, so any change to the dual phase now moves every entry.
constexpr GoldenChecksum kGoldenChecksums[] = {
    {"steady-week", 0x5cbe97abe3c09659ULL},
    {"weekend-transition", 0xb35a65176055a174ULL},
    {"fiber-cut-failover", 0xf96ee21b75578297ULL},
    {"dc-drain", 0xc900939b8c344793ULL},
    {"flash-crowd", 0x8766b3e39319e5daULL},
    {"transit-degrade-failover", 0x0dce1ac34d61c6ddULL},
    {"rolling-maintenance", 0x0308237a5243d455ULL},
    {"cut-then-flash-crowd", 0xe02687934a225c37ULL},
    {"na-steady-week", 0xfbc208b589a4d65dULL},
    {"asia-flash-crowd", 0x336c3e5e6d99dc9aULL},
    {"global-steady-week", 0xac0471a73556d995ULL},
    {"na-cut-shifts-to-eu", 0xf25096bc28b4bb07ULL},
    // Overload regime (admission control + anchored capacity).
    {"overload-sustained", 0x3978ee4315ea4b08ULL},
    {"regional-catastrophe", 0xa75321b2e406c6e4ULL},
    {"cascading-drain", 0x1145faac7d6cf2a4ULL},
};

Scenario golden_config(const std::string& name) {
  Scenario s = make_scenario(name);
  s.training_weeks = 1;
  s.peak_slot_calls = 25.0;
  s.oracle_counts = true;  // skip Holt-Winters: cheap and platform-stable
  s.shards = 8;
  s.replan_interval_slots = 12;
  s.pipeline.scope.timeslots = 12;
  s.pipeline.scope.max_reduced_configs = 20;
  return s;
}

TEST(SimGoldenTest, ChecksumsMatchAtOneTwoAndEightThreads) {
  const auto& names = scenario_names();
  ASSERT_EQ(names.size(), std::size(kGoldenChecksums))
      << "new scenario? add its golden checksum";
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], kGoldenChecksums[i].name);
    SimEngine engine(golden_config(names[i]));
    const auto r1 = engine.run(1);
    const auto r2 = engine.run(2);
    const auto r8 = engine.run(8);
    EXPECT_EQ(r1.checksum, r2.checksum) << names[i];
    EXPECT_EQ(r1.checksum, r8.checksum) << names[i];
    EXPECT_EQ(r1.leaked_calls, 0) << names[i];
    // plan_from_counts retries only an infeasible plan LP, so a replan that
    // gave up would otherwise pass silently into the golden checksum.
    for (const auto& stat : r1.replan_stats)
      EXPECT_EQ(stat.status, lp::SolveStatus::kOptimal)
          << names[i] << " replan at slot " << stat.slot << ": " << lp::status_name(stat.status);
    // Admission control only ever sheds or degrades in the overload
    // scenarios; every legacy scenario stays byte-for-byte rejection-free.
    if (!engine.scenario().admission_control) {
      EXPECT_EQ(r1.rejected_calls, 0) << names[i];
      EXPECT_EQ(r1.degraded_calls, 0) << names[i];
    }
    char actual[64];
    std::snprintf(actual, sizeof actual, "{\"%s\", 0x%016llxULL},", names[i].c_str(),
                  static_cast<unsigned long long>(r1.checksum));
    EXPECT_EQ(r1.checksum, kGoldenChecksums[i].checksum)
        << "golden drifted; updated entry: " << actual;
  }
}

// --- overload regime (admission control) --------------------------------

// The tentpole invariants of the overload regime, asserted on the sustained
// scenario at the golden scale: demand genuinely outruns anchored capacity
// (>= 1.5x integrated over a full simulated day), admission sheds and
// degrades without ever leaking a call, degradation engages before the
// first rejection, and the shed is fair per region (bounded by max_shed;
// regions without arrivals shed nothing).
TEST(SimOverloadTest, SustainedOverloadShedsFairlyWithoutLeaks) {
  const Scenario s = golden_config("overload-sustained");
  ASSERT_TRUE(s.admission_control);
  ASSERT_TRUE(s.capacity_anchor);
  SimEngine engine(s);
  const auto r = engine.run(2);

  // Offered demand vs. anchored capacity, integrated per simulated day.
  const auto counts = engine.eval_trace().config_active_counts();
  const auto& configs = engine.eval_trace().configs();
  const double capacity =
      engine.capacity_anchor_cores() * s.pipeline.scope.compute_headroom;
  ASSERT_GT(capacity, 0.0);
  const int days = r.eval_slots / core::kSlotsPerDay;
  ASSERT_GE(days, 1);
  bool saw_overloaded_day = false;
  for (int d = 0; d < days; ++d) {
    double offered = 0.0;
    for (int t = d * core::kSlotsPerDay; t < (d + 1) * core::kSlotsPerDay; ++t)
      for (std::size_t c = 0; c < counts.size(); ++c)
        offered += counts[c][static_cast<std::size_t>(t)] *
                   configs.get(core::ConfigId(static_cast<int>(c))).compute_cores();
    saw_overloaded_day |= offered >= 1.5 * capacity * core::kSlotsPerDay;
  }
  EXPECT_TRUE(saw_overloaded_day)
      << "no simulated day sustained demand >= 1.5x aggregate capacity";

  // Overload bites, and the lifecycle survives it untouched.
  EXPECT_EQ(r.leaked_calls, 0);
  EXPECT_GT(r.rejected_calls, 0);
  EXPECT_GT(r.degraded_calls, 0);

  // Quality degradation is attempted before any rejection: the first slot
  // with a degraded admission is no later than the first slot with a shed.
  const auto first_nonzero = [](const std::vector<double>& stream) {
    for (std::size_t i = 0; i < stream.size(); ++i)
      if (stream[i] > 0.0) return static_cast<int>(i);
    return -1;
  };
  const int first_degraded = first_nonzero(r.streams.degraded());
  const int first_rejected = first_nonzero(r.streams.rejected());
  ASSERT_GE(first_degraded, 0);
  ASSERT_GE(first_rejected, 0);
  EXPECT_LE(first_degraded, first_rejected);

  // Per-region fairness: the realized shed fraction never exceeds the
  // max_shed cap (no region is starved), and a region that offered no
  // calls cannot have shed any.
  for (int reg = 0; reg < geo::kNumContinents; ++reg) {
    const auto region = static_cast<geo::Continent>(reg);
    const auto ri = static_cast<std::size_t>(reg);
    EXPECT_LE(r.shed_fraction(region), s.admission_max_shed) << "region " << reg;
    if (r.calls_by_region[ri] == 0) {
      EXPECT_EQ(r.rejected_by_region[ri], 0);
    }
  }
}

// One scenario that makes every run tally nonzero: five times the trained
// volume against capacity anchored below the historical peak (admission
// degrades and sheds), a half drain of the Amsterdam DC (forced
// migrations) and a congested France transit (route changes and transit
// steering).
Scenario every_tally_scenario() {
  Scenario s = small_scenario();
  s.name = "every-tally";
  s.peak_slot_calls = 60.0;
  s.capacity_anchor = true;
  s.admission_control = true;
  s.pipeline.scope.compute_headroom = 0.8;
  s.overload_factor = 5.0;
  Disturbance drain;
  drain.kind = NetworkEventKind::kDcDrain;
  drain.day = 0;
  drain.slot_in_day = 22;
  drain.dc = "netherlands";
  drain.magnitude = 0.5;
  s.disturbances.push_back(drain);
  Disturbance degrade;
  degrade.kind = NetworkEventKind::kTransitDegrade;
  degrade.day = 0;
  degrade.slot_in_day = 24;
  degrade.duration_slots = 8;
  degrade.country = "france";
  degrade.dc = "netherlands";
  degrade.magnitude = 0.05;
  s.disturbances.push_back(degrade);
  return s;
}

// SimResult's tallies are the totals of its per-slot streams, and a run at
// 4 worker threads, whose streams, region slices and admission load ratios
// merge across shards, equals the 1-thread run bitwise.
TEST(SimTallyTest, EveryTallyIsItsStreamTotalAtOneAndFourThreads) {
  SimEngine engine(every_tally_scenario());
  auto r1 = engine.run(1);
  auto r4 = engine.run(4);

  const auto total = [](const std::vector<double>& stream) {
    return std::accumulate(stream.begin(), stream.end(), 0.0);
  };
  const std::pair<std::int64_t, const std::vector<double>*> tallies[] = {
      {r1.calls, &r1.streams.arrivals()},
      {r1.dc_migrations, &r1.streams.dc_migrations()},
      {r1.route_changes, &r1.streams.route_changes()},
      {r1.forced_migrations, &r1.streams.forced_migrations()},
      {r1.transit_failovers, &r1.streams.transit_failovers()},
      {r1.out_of_plan, &r1.streams.out_of_plan()},
      {r1.fallback_assignments, &r1.streams.fallbacks()},
      {r1.rejected_calls, &r1.streams.rejected()},
      {r1.degraded_calls, &r1.streams.degraded()},
  };
  for (std::size_t i = 0; i < std::size(tallies); ++i) {
    const auto& [tally, stream] = tallies[i];
    EXPECT_GT(tally, 0) << "tally " << i;
    EXPECT_EQ(static_cast<double>(tally), total(*stream)) << "tally " << i;
  }
  const auto eu = static_cast<std::size_t>(geo::Continent::kEurope);
  EXPECT_GT(r1.calls_by_region[eu], 0);
  EXPECT_GT(r1.rejected_by_region[eu], 0);
  EXPECT_GT(r1.degraded_by_region[eu], 0);
  for (int reg = 0; reg < geo::kNumContinents; ++reg) {
    const auto region = static_cast<geo::Continent>(reg);
    const auto ri = static_cast<std::size_t>(reg);
    EXPECT_EQ(static_cast<double>(r1.calls_by_region[ri]),
              r1.streams.region_arrivals_total(region));
    EXPECT_EQ(static_cast<double>(r1.rejected_by_region[ri]),
              r1.streams.region_rejected_total(region));
    EXPECT_EQ(static_cast<double>(r1.degraded_by_region[ri]),
              r1.streams.region_degraded_total(region));
  }
  EXPECT_EQ(r1.leaked_calls, 0);

  r1.zero_wallclock();
  r4.zero_wallclock();
  EXPECT_TRUE(r1 == r4);
}

// Compound catastrophes must shed/degrade (the point of the templates) and
// still satisfy the lifecycle invariant — including force-rejects of calls
// stranded by the drains with nowhere live left to land.
TEST(SimOverloadTest, CompoundCatastrophesShedWithoutLeaks) {
  for (const char* name : {"regional-catastrophe", "cascading-drain"}) {
    SimEngine engine(golden_config(name));
    const auto r = engine.run(2);
    EXPECT_EQ(r.leaked_calls, 0) << name;
    EXPECT_GT(r.rejected_calls + r.degraded_calls, 0) << name;
    for (int reg = 0; reg < geo::kNumContinents; ++reg) {
      const auto ri = static_cast<std::size_t>(reg);
      if (r.calls_by_region[ri] == 0) {
        EXPECT_EQ(r.rejected_by_region[ri], 0) << name;
      }
    }
  }
}

// Backward compatibility of the region-set refactor: a single-continent
// Europe scope built explicitly through the new RegionSet API (vector
// constructor, not the implicit Continent conversion the scenario defaults
// use) reproduces the exact pre-refactor checksums for all eight original
// scenarios. The values are the same frozen goldens — committed before
// PlanScope grew regions — so any byte of drift in the single-region path
// fails here.
// --- observability ------------------------------------------------------

// The zero_wallclock() masking contract for the perf block: every
// wall-clock field (phase totals, each wall-clock field of the per-replan
// LP record, the assignment-latency histogram) participates in operator==
// and is zeroed by the mask, while the deterministic perf fields stay live.
TEST(SimObsTest, ZeroWallclockMasksEveryPerfTimingField) {
  SimResult a = SimEngine(small_scenario()).run(2);
  SimResult b = a;
  ASSERT_TRUE(a == b);

  // Perturb each wall-clock field in turn: equality must notice (the
  // fields are genuinely compared, not forgotten by operator==)...
  ASSERT_FALSE(b.replan_stats.empty());
  ReplanStat& stat = b.replan_stats[0];
  const std::vector<double*> wall_fields = {
      &b.perf.event_apply_seconds, &b.perf.metric_aggregation_seconds,
      &b.perf.replan_seconds,      &b.perf.shard_work_seconds,
      &stat.solve_seconds,         &stat.build_seconds,
      &stat.phase1_seconds,        &stat.phase2_seconds,
      &stat.refactor_seconds,      &stat.fallback_seconds};
  for (double* field : wall_fields) {
    const double saved = *field;
    *field += 1.0;
    EXPECT_FALSE(a == b);
    *field = saved;
  }
  for (double* field : wall_fields) *field += 1.0;
  b.perf.assign_latency_us.record(42.0);
  EXPECT_FALSE(a == b);

  // ...and zero_wallclock() must erase every one of those differences.
  a.zero_wallclock();
  b.zero_wallclock();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(b.perf.assign_latency_us.total_count(), 0u);

  // Deterministic perf content survives the mask: it is exactly what the
  // cross-thread determinism tests rely on.
  EXPECT_GT(a.perf.events_processed, 0);
  EXPECT_GT(a.perf.call_duration_slots.total_count(), 0u);
}

// Full-result determinism across thread counts now includes the perf
// block: the merged deterministic histogram (call durations, merged in
// shard index order) and the event count must be bit-identical at 1, 2,
// and 8 workers — this is the engine-level merge-path coverage behind the
// unit-level ObsHistogramTest.MergeIsInvariantToSplitAndOrder.
TEST(SimObsTest, DeterministicPerfFieldsAreThreadInvariant) {
  SimEngine engine(small_scenario());
  auto r1 = engine.run(1);
  auto r2 = engine.run(2);
  auto r8 = engine.run(8);

  EXPECT_EQ(r1.perf.events_processed, r8.perf.events_processed);
  EXPECT_TRUE(r1.perf.call_duration_slots == r8.perf.call_duration_slots);

  r1.zero_wallclock();
  r2.zero_wallclock();
  r8.zero_wallclock();
  EXPECT_TRUE(r1 == r2);
  EXPECT_TRUE(r1 == r8);
}

// The rolling cadence (a replan every horizon/8 slots, warm-started from
// the previous basis, forecast into the engine's reused buffer): every
// shard reads the one plan generation all shards share, and 1 and 4
// worker threads give bit-identical results.
TEST(SimObsTest, RollingWarmReplansAreThreadInvariant) {
  Scenario s = small_scenario();
  s.training_weeks = 1;
  s.oracle_counts = false;
  s.warm_replans = true;
  s.pipeline.scope.timeslots = 16;
  s.replan_interval_slots = s.pipeline.scope.timeslots / 8;
  SimEngine engine(s);
  auto r1 = engine.run(1);
  auto r4 = engine.run(4);
  ASSERT_GE(r1.replans, 3);
  EXPECT_TRUE(std::any_of(r1.replan_stats.begin(), r1.replan_stats.end(),
                          [](const ReplanStat& st) { return st.warm_started; }))
      << "no replan warm-started at the rolling cadence";
  r1.zero_wallclock();
  r4.zero_wallclock();
  EXPECT_TRUE(r1 == r4);
}

// Perf counters measure the workload the run actually processed: one
// duration sample per arriving call, one latency sample per assignment
// decision (arrival + convergence), all three call events drained.
TEST(SimObsTest, PerfCountsMatchTheWorkload) {
  const SimResult r = SimEngine(small_scenario()).run(2);
  ASSERT_GT(r.calls, 0);
  EXPECT_EQ(r.perf.call_duration_slots.total_count(),
            static_cast<std::size_t>(r.calls));
  // Up to arrival + convergence + end per call; events clamped past the
  // eval horizon may stay queued, so the exact count can fall just short.
  EXPECT_LE(r.perf.events_processed, 3 * r.calls);
  EXPECT_GE(r.perf.events_processed, 2 * r.calls);
  EXPECT_GE(r.perf.assign_latency_us.total_count(),
            static_cast<std::size_t>(r.calls));
  EXPECT_GT(r.perf.assign_latency_us.max(), 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.calls_per_sec(), 0.0);
  EXPECT_GT(r.events_per_sec(), 0.0);
}

// The admission-latency histogram samples each admission verdict: none
// when admission control is off (every call is admitted unasked), one per
// offered arrival when it is on.
TEST(SimObsTest, AdmissionLatencyIsSampledOnlyUnderAdmissionControl) {
  const SimResult steady = SimEngine(small_scenario()).run(2);
  ASSERT_GT(steady.calls, 0);
  EXPECT_EQ(steady.perf.admission_latency_us.total_count(), 0u);

  const SimResult overload = SimEngine(every_tally_scenario()).run(2);
  ASSERT_GT(overload.rejected_calls, 0);
  EXPECT_EQ(overload.perf.admission_latency_us.total_count(),
            static_cast<std::size_t>(overload.calls));
}

// Attaching a TraceRecorder is observation, not perturbation: the run's
// checksum must not move, and the recorder must come back with the
// documented lanes populated (engine phases + per-shard jobs).
TEST(SimObsTest, TracingDoesNotPerturbTheRunAndRecordsAllLanes) {
  const Scenario s = small_scenario();
  const auto plain = SimEngine(s).run(2);

  obs::TraceRecorder trace;
  SimEngine engine(s);
  engine.set_trace(&trace);
  const auto traced = engine.run(2);

  EXPECT_EQ(plain.checksum, traced.checksum);
  EXPECT_GT(trace.size(), 0u);
  std::set<int> lanes;
  bool saw_replan = false;
  for (const auto& e : trace.events()) {
    lanes.insert(e.lane);
    saw_replan |= (e.name == "replan");
    EXPECT_GE(e.duration_us, 0.0);
  }
  EXPECT_TRUE(lanes.count(0)) << "engine lane missing";
  EXPECT_TRUE(lanes.count(1)) << "shard lanes missing";
  EXPECT_TRUE(saw_replan);
}

TEST(SimGoldenTest, EuropeRegionSetScopeReproducesPreRefactorChecksums) {
  constexpr std::size_t kPreRefactorScenarios = 8;
  ASSERT_GE(std::size(kGoldenChecksums), kPreRefactorScenarios);
  for (std::size_t i = 0; i < kPreRefactorScenarios; ++i) {
    Scenario s = golden_config(kGoldenChecksums[i].name);
    s.pipeline.scope.regions =
        geo::RegionSet(std::vector<geo::Continent>{geo::Continent::kEurope});
    ASSERT_TRUE(s.pipeline.scope.regions.single());
    ASSERT_TRUE(s.pipeline.scope.regions.contains(geo::Continent::kEurope));
    SimEngine engine(s);
    EXPECT_EQ(engine.run(2).checksum, kGoldenChecksums[i].checksum)
        << kGoldenChecksums[i].name
        << ": the region-set scope changed single-continent behaviour";
  }
}

}  // namespace
}  // namespace titan::sim
