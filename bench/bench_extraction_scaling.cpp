// Scaling: the LIFT pipeline over growing layouts.  The paper's VCO is
// one macro; a production fault extractor must stay near-linear in layout
// size.  Inverter chains scale the generator, the extractor and the fault
// enumeration together.  The table splits each row into circuit extraction
// and LIFT's own work (extract_faults minus the extraction it runs), then
// times LVS of the schematic against the extraction and counts the nets
// it maps.  It ends with the 256/64- and 1024/256-stage time ratios:
// linear scaling is 4x, quadratic 16x.  Every row is the best of three
// runs: timed once, the 1024-stage row moved the 1024/256 LIFT ratio
// between 4.3x and 6.9x over six runs on a busy 4-core host.
//
// Run: ./bench_extraction_scaling  (exits 1 if the timed extraction and
// the one LIFT runs disagree)

#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "netlist/compare.h"

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

bool print_scaling() {
    std::printf("== LIFT scaling over inverter-chain layouts ==\n\n");
    std::printf("  %-8s %-8s %-8s %-10s %-8s %-14s %-15s %-10s %-10s %s\n",
                "stages", "shapes", "nets", "sites", "faults", "extract [ms]",
                "lift self [ms]", "lift [ms]", "lvs [ms]", "mapped");
    const auto tech = layout::Technology::single_poly_double_metal();
    struct Times {
        double extract, self, lift, lvs;
    };
    std::map<int, Times> times;
    bool consistent = true;
    for (int n : {4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
        const auto ckt = circuits::build_inverter_chain(n, false);
        const auto lo = layout::generate_cell_layout(ckt);
        std::size_t fragments = 0;
        const double extract_ms = best_ms([&] {
            fragments = extract::extract(lo, tech).fragments.size();
        });
        lift::LiftResult res;
        const double lift_ms = best_ms([&] {
            res = lift::extract_faults(lo, tech, lift::LiftOptions{});
        });
        netlist::CompareResult lvs;
        const double lvs_ms = best_ms([&] {
            lvs = netlist::compare_netlists(ckt, res.extraction.circuit, 1e-2);
        });
        consistent = consistent &&
                     fragments == res.extraction.fragments.size();
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
    return consistent;
}

} // namespace

int main() {
    if (print_scaling()) return 0;
    std::fprintf(stderr, "bench_extraction_scaling: extract() and LIFT's "
                         "own extraction disagree on the fragment count\n");
    return 1;
}
