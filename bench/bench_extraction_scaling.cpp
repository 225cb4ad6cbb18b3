// Scaling: the LIFT pipeline over growing layouts.  The paper's VCO is
// one macro; a production fault extractor must stay near-linear in layout
// size.  Inverter chains scale the generator, the extractor and the fault
// enumeration together.  The table splits each row into circuit extraction
// and LIFT's own work (extract_faults minus the extraction it runs), then
// times LVS of the schematic against the extraction and counts the nets
// it maps.  It ends with the 256/64- and 1024/256-stage time ratios:
// linear scaling is 4x, quadratic 16x.  Rows above 256 stages are timed
// once, the smaller ones best of three.
//
// Run: ./bench_extraction_scaling [--benchmark_filter=NONE]  (table only)

#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "netlist/compare.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

using namespace catlift;

namespace {

/// Fastest of `reps` runs of `fn`, in milliseconds.
template <typename Fn>
double best_ms(int reps, Fn fn) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        best = rep == 0 ? ms : std::min(best, ms);
    }
    return best;
}

void print_scaling() {
    std::printf("== LIFT scaling over inverter-chain layouts ==\n\n");
    std::printf("  %-8s %-8s %-8s %-10s %-8s %-14s %-15s %-10s %-10s %s\n",
                "stages", "shapes", "nets", "sites", "faults", "extract [ms]",
                "lift self [ms]", "lift [ms]", "lvs [ms]", "mapped");
    const auto tech = layout::Technology::single_poly_double_metal();
    struct Times {
        double extract, self, lift, lvs;
    };
    std::map<int, Times> times;
    for (int n : {4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
        const int reps = n > 256 ? 1 : 3;
        const auto ckt = circuits::build_inverter_chain(n, false);
        const auto lo = layout::generate_cell_layout(ckt);
        const double extract_ms = best_ms(reps, [&] {
            benchmark::DoNotOptimize(extract::extract(lo, tech));
        });
        lift::LiftResult res;
        const double lift_ms = best_ms(reps, [&] {
            res = lift::extract_faults(lo, tech, lift::LiftOptions{});
        });
        netlist::CompareResult lvs;
        const double lvs_ms = best_ms(reps, [&] {
            lvs = netlist::compare_netlists(ckt, res.extraction.circuit, 1e-2);
        });
        const double self_ms = std::max(0.0, lift_ms - extract_ms);
        times[n] = {extract_ms, self_ms, lift_ms, lvs_ms};
        const std::size_t nets = ckt.node_names().size();
        std::printf("  %-8d %-8zu %-8zu %-10zu %-8zu %-14.1f %-15.1f %-10.1f "
                    "%-10.2f %zu/%zu%s\n",
                    n, lo.size(), res.extraction.net_names.size(),
                    res.stats.bridge_sites + res.stats.open_sites +
                        res.stats.cut_sites,
                    res.faults.size(), extract_ms, self_ms, lift_ms, lvs_ms,
                    lvs.net_map.size(), nets, lvs.equivalent ? "" : " (!lvs)");
    }
    auto ratios = [&](int big, int small) {
        const Times& b = times[big];
        const Times& s = times[small];
        std::printf("  %d/%d time ratio: extract %.1fx, lift self %.1fx, "
                    "lift %.1fx, lvs %.1fx\n",
                    big, small, b.extract / s.extract, b.self / s.self,
                    b.lift / s.lift, b.lvs / s.lvs);
    };
    std::printf("\n  (linear 4x, quadratic 16x)\n");
    ratios(256, 64);
    ratios(1024, 256);
    std::printf("\n");
}

void BM_LiftChain(benchmark::State& state) {
    const auto ckt =
        circuits::build_inverter_chain(static_cast<int>(state.range(0)),
                                       false);
    const auto lo = layout::generate_cell_layout(ckt);
    const auto tech = layout::Technology::single_poly_double_metal();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            lift::extract_faults(lo, tech, lift::LiftOptions{}));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LiftChain)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

} // namespace

int main(int argc, char** argv) {
    print_scaling();
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
