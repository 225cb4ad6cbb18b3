// Scaling: the LIFT pipeline over growing layouts.  The paper's VCO is
// one macro; a production fault extractor must stay near-linear in layout
// size.  Inverter chains scale the generator, the extractor and the fault
// enumeration together.  The table splits each row into circuit extraction
// and LIFT's own work (extract_faults minus the extraction it runs) and
// ends with the 256/64-stage time ratios: linear scaling is 4x, quadratic
// 16x.
//
// Run: ./bench_extraction_scaling [--benchmark_filter=NONE]  (table only)

#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

using namespace catlift;

namespace {

/// Fastest of three runs of `fn`, in milliseconds.
template <typename Fn>
double best_ms(Fn fn) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
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
    std::printf("  %-8s %-8s %-8s %-10s %-8s %-14s %-15s %s\n", "stages",
                "shapes", "nets", "sites", "faults", "extract [ms]",
                "lift self [ms]", "lift [ms]");
    const auto tech = layout::Technology::single_poly_double_metal();
    std::map<int, std::pair<double, double>> times;  // stages -> self, total
    for (int n : {4, 8, 16, 32, 64, 128, 256}) {
        const auto ckt = circuits::build_inverter_chain(n, false);
        const auto lo = layout::generate_cell_layout(ckt);
        const double extract_ms = best_ms([&] {
            benchmark::DoNotOptimize(extract::extract(lo, tech));
        });
        lift::LiftResult res;
        const double lift_ms = best_ms([&] {
            res = lift::extract_faults(lo, tech, lift::LiftOptions{});
        });
        const double self_ms = std::max(0.0, lift_ms - extract_ms);
        times[n] = {self_ms, lift_ms};
        std::printf("  %-8d %-8zu %-8zu %-10zu %-8zu %-14.1f %-15.1f %.1f\n",
                    n, lo.size(), res.extraction.net_names.size(),
                    res.stats.bridge_sites + res.stats.open_sites +
                        res.stats.cut_sites,
                    res.faults.size(), extract_ms, self_ms, lift_ms);
    }
    std::printf("\n  256/64 time ratio (linear 4x, quadratic 16x): "
                "lift self %.1fx, lift %.1fx\n\n",
                times[256].first / times[64].first,
                times[256].second / times[64].second);
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
