// Kernel scaling: dense LU vs the sparse incremental kernel across matrix
// sizes, on two workloads:
//
//   * the N-stage ring oscillator (1-D, the historical rows) up to 201
//     stages, and
//   * the 2-D coupled-oscillator grid (circuits/oscgrid.h) up to ~10k
//     unknowns, where fill-reducing orderings earn their keep.
//
// Per size the sparse AMD kernel (minimum-degree preorder +
// Gilbert-Peierls + supernodal refactor) runs with and without the
// Jacobian bypass, with the one-time-analysis vs numeric-refactor time
// split recorded, so BENCH_kernel_scaling.json captures the asymptotic
// dense/sparse separation up to 10k unknowns.  The row counters
// (unknowns, Newton iterations, factorizations) are deterministic for a
// given build; wall times are single samples.
//
// --quick: the CI smoke subset (small sizes only, same row schema, mode
// recorded in the JSON).

#include "circuits/oscgrid.h"
#include "circuits/ringosc.h"
#include "obs/obs.h"
#include "spice/engine.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace catlift;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct Sample {
    std::string label;
    std::string config;
    std::size_t unknowns = 0;
    double wall_s = 0.0;
    std::size_t nr_iterations = 0;
    std::size_t lu_factorizations = 0;
    std::size_t bypass_solves = 0;
    std::size_t sparse_full_factors = 0;
    std::size_t sparse_refactors = 0;
    std::size_t device_stamp_skips = 0;
    double ordering_s = 0.0;
    double numeric_s = 0.0;
};

struct Config {
    const char* name;
    std::size_t sparse_threshold;
    bool bypass;
};

constexpr std::size_t kDense = static_cast<std::size_t>(-1);
constexpr Config kDenseCfg = {"dense", kDense, false};
constexpr Config kAmdCfg = {"sparse-amd", 0, false};
constexpr Config kAmdBypassCfg = {"sparse-amd+bypass", 0, true};

Sample run_one(const netlist::Circuit& ckt, const std::string& label,
               const Config& cfg, const netlist::TranSpec& ts) {
    spice::SimOptions opt;
    opt.uic = true;
    opt.sparse_threshold = cfg.sparse_threshold;
    opt.bypass = cfg.bypass;

    Sample s;
    s.label = label;
    s.config = cfg.name;
    spice::Simulator sim(ckt, opt);
    s.unknowns = sim.unknowns();
    const auto t0 = std::chrono::steady_clock::now();
    sim.tran(ts);
    s.wall_s = seconds_since(t0);
    s.nr_iterations = sim.stats().nr_iterations;
    s.lu_factorizations = sim.stats().lu_factorizations;
    s.bypass_solves = sim.stats().bypass_solves;
    s.sparse_full_factors = sim.stats().sparse_full_factors;
    s.sparse_refactors = sim.stats().sparse_refactors;
    s.device_stamp_skips = sim.stats().device_stamp_skips;
    s.ordering_s = sim.stats().ordering_seconds;
    s.numeric_s = sim.stats().numeric_seconds;
    std::printf("  %-10s %-18s %8zu %10.3f %8zu %9zu %10.4f %10.4f\n",
                s.label.c_str(), s.config.c_str(), s.unknowns, s.wall_s,
                s.nr_iterations, s.sparse_refactors, s.ordering_s,
                s.numeric_s);
    return s;
}

} // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    std::printf("== kernel scaling: 1-D ring + 2-D oscillator grid%s ==\n\n",
                quick ? " (quick)" : "");
    obs::enable_metrics(true);  // phase histograms for the BENCH JSON
    std::printf("  %-10s %-18s %8s %10s %8s %9s %10s %10s\n", "label",
                "config", "unknowns", "wall [s]", "nr", "refactors",
                "order [s]", "numeric[s]");

    std::vector<Sample> samples;

    // Warmup (allocator/page-cache) outside the measurements.
    {
        circuits::RingOscOptions ro;
        ro.stages = 11;
        run_one(circuits::build_ring_oscillator(ro), "warmup", kDenseCfg,
                {2.5e-9, 1e-6, 0.0});
    }
    samples.clear();

    // -- 1-D ring: the historical rows, fixed 400-step grid over 1 us.
    const std::vector<int> ring_sizes =
        quick ? std::vector<int>{11, 51, 201}
              : std::vector<int>{11, 25, 51, 101, 201};
    for (int n : ring_sizes) {
        circuits::RingOscOptions ro;
        ro.stages = n;
        const netlist::Circuit ckt = circuits::build_ring_oscillator(ro);
        const netlist::TranSpec ts{2.5e-9, 1e-6, 0.0};
        const std::string label = "ring-" + std::to_string(n);
        samples.push_back(run_one(ckt, label, kDenseCfg, ts));
        samples.push_back(run_one(ckt, label, kAmdCfg, ts));
        samples.push_back(run_one(ckt, label, kAmdBypassCfg, ts));
    }

    // -- 2-D grid: 3-stage cells, rows x rows; the 58x58 grid is the
    // ~10k-unknown row (few steps -- at that size the one-time analysis
    // is what is being measured; the dense kernel is infeasible there and
    // is benched only on the smallest grid).
    const std::vector<int> grid_sizes =
        quick ? std::vector<int>{8, 15} : std::vector<int>{8, 15, 26, 58};
    for (int rows : grid_sizes) {
        circuits::OscGridOptions go;
        go.rows = rows;
        go.cols = rows;
        const netlist::Circuit ckt = circuits::build_oscillator_grid(go);
        const int steps = rows >= 58 ? 10 : 40;
        const netlist::TranSpec ts{2.5e-9, 2.5e-9 * steps, 0.0};
        const std::string label = "grid-" + std::to_string(rows) + "x" +
                                  std::to_string(rows);
        if (rows <= 8) samples.push_back(run_one(ckt, label, kDenseCfg, ts));
        samples.push_back(run_one(ckt, label, kAmdCfg, ts));
        samples.push_back(run_one(ckt, label, kAmdBypassCfg, ts));
    }

    std::ofstream js("BENCH_kernel_scaling.json");
    js << "{\n  \"bench\": \"kernel_scaling\",\n";
    js << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
    js << "  \"samples\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        js << "    {\"label\": \"" << s.label << "\", \"config\": \""
           << s.config << "\", \"unknowns\": " << s.unknowns
           << ", \"wall_s\": " << s.wall_s << ", \"nr_iterations\": "
           << s.nr_iterations << ", \"lu_factorizations\": "
           << s.lu_factorizations << ", \"bypass_solves\": "
           << s.bypass_solves << ", \"sparse_full_factors\": "
           << s.sparse_full_factors << ", \"sparse_refactors\": "
           << s.sparse_refactors << ", \"device_stamp_skips\": "
           << s.device_stamp_skips << ", \"ordering_s\": " << s.ordering_s
           << ", \"numeric_s\": " << s.numeric_s << "}"
           << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    js << "  ],\n";
    js << "  \"metrics\": " << obs::Registry::global().to_json("  ") << "\n";
    js << "}\n";
    std::printf("\n  wrote BENCH_kernel_scaling.json\n");
    return 0;
}
