// Reproduces Fig 8(b): per-query processing time on the smallest XMark
// dataset for Q1/Q2/Q3 across the five engines.
//
//   --parallelism=0,8   sweep GTEA's intra-query lane budget (the
//                       baselines are single-threaded and run once);
//                       the first value fills the engine table, the
//                       full sweep gets its own speedup table
//   --json=<path>       machine-readable rows for the CI perf-diff
#include <algorithm>

#include "bench/harness.h"
#include "common/rng.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  const double s = BenchScale();
  const int reps = BenchReps();
  const auto json_path = JsonFlag(argc, argv);
  const std::vector<size_t> lane_sweep =
      SizeListFlag(argc, argv, "--parallelism=", "0");
  workload::XmarkOptions o;
  o.scale = 0.5 * s;
  DataGraph g = workload::GenerateXmark(o);
  EngineBench engines(g);
  JsonReport report("fig8b_xmark_queries");
  report.AddMeta("scale", s);
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("edges", static_cast<uint64_t>(g.NumEdges()));
  std::printf("Fig 8(b): query time (ms) on XMark scale 0.5 "
              "(GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-8s %12s %12s %12s %12s %12s\n", "Query", "GTEA",
              "TwigStackD", "HGJoin+", "TwigStack", "Twig2Stack");
  const int kQueries = 5;
  // gtea_by_lane[variant-1][lane index] = summed ms at that budget.
  std::vector<std::vector<double>> gtea_by_lane;
  std::vector<VerdictRow> verdict;
  Rng rng(13);
  for (int variant = 1; variant <= 3; ++variant) {
    double t_tsd = 0, t_hg = 0, t_ts = 0, t_t2s = 0;
    std::vector<double> t_gtea(lane_sweep.size(), 0.0);
    for (int i = 0; i < kQueries; ++i) {
      int pg = static_cast<int>(rng.NextBounded(10));
      int ig = static_cast<int>(rng.NextBounded(10));
      int pg2 = static_cast<int>(rng.NextBounded(10));
      workload::XmarkQuery wq =
          variant == 1   ? workload::BuildXmarkQ1(g, pg)
          : variant == 2 ? workload::BuildXmarkQ2(g, pg, ig)
                         : workload::BuildXmarkQ3(g, pg, ig, pg2);
      auto cross = EngineBench::CrossIds(wq.query, wq.cross_node_names);
      for (size_t li = 0; li < lane_sweep.size(); ++li) {
        GteaOptions opts;
        opts.parallelism = lane_sweep[li];
        t_gtea[li] +=
            MinTimeMs([&] { engines.RunGtea(wq.query, opts); }, reps);
      }
      t_tsd += MinTimeMs([&] { engines.RunTwigStackD(wq.query); }, reps);
      t_hg += MinTimeMs([&] { engines.RunHgJoinPlus(wq.query); }, reps);
      t_ts += MinTimeMs([&] { engines.RunTwigStack(wq.query, cross); },
                        reps);
      t_t2s += MinTimeMs(
          [&] { engines.RunTwig2Stack(wq.query, cross); }, reps);
    }
    std::printf("Q%-7d %12.2f %12.2f %12.2f %12.2f %12.2f\n", variant,
                t_gtea[0] / kQueries, t_tsd / kQueries, t_hg / kQueries,
                t_ts / kQueries, t_t2s / kQueries);
    const std::string qname = "Q" + std::to_string(variant);
    verdict.push_back(
        {qname, t_gtea[0], t_tsd, std::min({t_tsd, t_hg, t_ts, t_t2s})});
    for (size_t li = 0; li < lane_sweep.size(); ++li) {
      report.AddRow()
          .Add("query", qname)
          .Add("parallelism", static_cast<uint64_t>(lane_sweep[li]))
          .Add("gtea_ms", t_gtea[li] / kQueries);
    }
    report.AddRow()
        .Add("query", qname)
        .Add("twigstackd_ms", t_tsd / kQueries)
        .Add("hgjoin_plus_ms", t_hg / kQueries)
        .Add("twigstack_ms", t_ts / kQueries)
        .Add("twig2stack_ms", t_t2s / kQueries);
    gtea_by_lane.push_back(std::move(t_gtea));
  }
  if (lane_sweep.size() > 1) {
    std::printf("\nGTEA intra-query parallelism sweep: ms (speedup vs "
                "--parallelism=%zu)\n%-8s", lane_sweep[0], "Query");
    for (size_t lanes : lane_sweep) {
      std::printf("  %8zu-lane", lanes);
    }
    std::printf("\n");
    for (size_t v = 0; v < gtea_by_lane.size(); ++v) {
      std::printf("Q%-7zu", v + 1);
      for (size_t li = 0; li < lane_sweep.size(); ++li) {
        const double ms = gtea_by_lane[v][li] / kQueries;
        const double speedup =
            gtea_by_lane[v][0] / std::max(gtea_by_lane[v][li], 1e-9);
        std::printf("  %7.2f %4.1fx", ms, speedup);
      }
      std::printf("\n");
    }
  }
  PrintGteaVerdict(verdict);
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}
