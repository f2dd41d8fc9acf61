// Quickstart: the smallest end-to-end tour of the library.
//
//   1. Build the synthetic world and network ground truth.
//   2. Compare Internet vs WAN latency for one pair (the §3 question).
//   3. Generate a small European call trace.
//   4. Plan one day with the Titan-Next LP and assign a call online.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "geo/world.h"
#include "net/network_db.h"
#include "titannext/controller.h"
#include "titannext/pipeline.h"
#include "workload/callgen.h"

int main() {
  using namespace titan;

  // 1. World + network ground truth (deterministic; all knobs in options).
  const geo::World world = geo::World::make();
  const net::NetworkDb net(world);
  std::printf("world: %zu countries, %zu cities, %zu ASNs, %zu DCs; WAN: %zu links\n",
              world.countries().size(), world.cities().size(), world.asns().size(),
              world.dcs().size(), net.topology().link_count());

  // 2. Is the Internet path good enough for France -> Netherlands DC?
  const auto fr = world.find_country("france");
  const auto nl = world.find_dc("netherlands");
  std::printf("France -> Netherlands DC: WAN %.1f ms, Internet %.1f ms (RTT)\n",
              net.latency().base_rtt_ms(fr, nl, net::PathType::kWan),
              net.latency().base_rtt_ms(fr, nl, net::PathType::kInternet));

  // 3. A 3-week European trace (2 training weeks + 1 evaluation week).
  workload::TraceOptions topts;
  topts.weeks = 3;
  topts.peak_slot_calls = 60.0;
  const workload::Trace trace = workload::TraceGenerator(world).generate(topts);
  std::printf("trace: %zu calls, %zu distinct call configs\n", trace.calls().size(),
              trace.configs().size());

  // 4. Plan one evaluation day jointly (MP DC + routing) and assign a call.
  std::map<std::pair<int, int>, double> fractions;  // Titan-learnt safe fractions
  for (const auto c : world.countries_in(geo::Continent::kEurope))
    for (const auto d : world.dcs_in(geo::Continent::kEurope))
      fractions[{c.value(), d.value()}] = net.loss().internet_unusable(c) ? 0.0 : 0.20;

  titannext::PipelineOptions popts;
  popts.scope.timeslots = core::kSlotsPerDay;
  popts.scope.max_reduced_configs = 30;
  popts.lp.e2e_bound_ms = 90.0;
  const titannext::TitanNextPipeline pipeline(net, fractions, popts);
  const titannext::DayPlan day =
      pipeline.plan_day_oracle(trace, 2 * core::kSlotsPerWeek);
  if (!day.valid()) {
    std::printf("plan failed\n");
    return 1;
  }
  std::printf("LP plan: sum of WAN link peaks %.1f Mbps, solved in %.2f s\n",
              day.plan.result().sum_of_wan_peaks_mbps, day.lp.solve_seconds);

  titannext::OnlineController controller(*day.inputs, day.plan);
  core::Rng rng(1);
  const auto initial =
      controller.assign_initial(fr, media::MediaType::kVideo, /*slot=*/20, rng);
  std::printf("first joiner from France (video) -> DC %s over %s%s\n",
              world.dc(initial.assignment.dc).name.c_str(),
              net::path_type_name(initial.assignment.path).c_str(),
              initial.from_plan ? "" : " (fallback)");

  // The call turns out to be France+UK; converge and maybe migrate.
  workload::CallConfig truth;
  truth.participants = {{fr, 2}, {world.find_country("uk"), 1}};
  truth.media = media::MediaType::kVideo;
  truth.canonicalize();
  const auto converged = controller.converge(initial, truth, 20, rng);
  std::printf("converged config %s -> DC %s over %s (%s)\n",
              truth.key(world).c_str(),
              world.dc(converged.final_assignment.dc).name.c_str(),
              net::path_type_name(converged.final_assignment.path).c_str(),
              converged.dc_migration ? "migrated" : "no migration");
  return 0;
}
