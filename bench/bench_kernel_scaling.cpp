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
// dense/sparse separation up to 10k unknowns.  A campaign section runs
// the paper's 64-fault VCO campaign and the OTA campaign under the
// campaign-shared symbolic cache and records hit rates and
// verdict-identity flags (tools/bench_guard.py fails CI on any drift).
//
// --quick: the CI smoke subset (small sizes only, same row schema, mode
// recorded in the JSON so the guard compares only the rows present).

#include "anafault/campaign.h"
#include "circuits/oscgrid.h"
#include "circuits/ota.h"
#include "circuits/ringosc.h"
#include "circuits/vco.h"
#include "core/cat.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "obs/obs.h"
#include "spice/engine.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
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

struct CampaignBench {
    std::size_t vco_faults = 0;
    std::size_t vco_scheduled = 0;
    std::size_t vco_cache_hits = 0;
    double vco_cache_hit_rate = 0.0;
    std::size_t vco_detected_cache_on = 0;
    std::size_t vco_detected_cache_off = 0;
    double vco_wall_cache_on_s = 0.0;
    double vco_wall_cache_off_s = 0.0;
    double vco_ordering_cache_on_s = 0.0;
    double vco_ordering_cache_off_s = 0.0;
    bool vco_default_verdicts_identical = false;
    bool ota_cache_verdicts_identical = false;
    bool ota_device_bypass_verdicts_identical = false;
    std::size_t ota_device_stamp_skips = 0;
};

std::set<int> detected_ids(const anafault::CampaignResult& r) {
    std::set<int> ids;
    for (const auto& f : r.results)
        if (f.detect_time) ids.insert(f.fault_id);
    return ids;
}

CampaignBench run_campaign_bench() {
    CampaignBench cb;

    // -- VCO: the paper's 64-fault campaign, sparse kernel forced so the
    // symbolic cache engages.  Cache-on vs cache-off measures the
    // amortization; the verdict sets of the *shipped default*
    // configuration (dense path, per-device bypass at the margin-safe
    // tolerance) are compared bypass-on vs bypass-off for identity.
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    cb.vco_faults = lift_res.faults.size();

    anafault::CampaignOptions sparse_on = e.config.campaign;
    sparse_on.sim.sparse_threshold = 0;
    anafault::CampaignOptions sparse_off = sparse_on;
    sparse_off.share_symbolic = false;

    auto t0 = std::chrono::steady_clock::now();
    const auto r_on =
        anafault::run_campaign(e.sim_circuit, lift_res.faults, sparse_on);
    cb.vco_wall_cache_on_s = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    const auto r_off =
        anafault::run_campaign(e.sim_circuit, lift_res.faults, sparse_off);
    cb.vco_wall_cache_off_s = seconds_since(t0);

    cb.vco_scheduled = r_on.batch.scheduled;
    cb.vco_cache_hits = r_on.batch.symbolic_cache_hits;
    cb.vco_cache_hit_rate =
        cb.vco_scheduled > 0
            ? static_cast<double>(cb.vco_cache_hits) /
                  static_cast<double>(cb.vco_scheduled)
            : 0.0;
    cb.vco_detected_cache_on = r_on.detected();
    cb.vco_detected_cache_off = r_off.detected();
    cb.vco_ordering_cache_on_s = r_on.batch.ordering_seconds;
    cb.vco_ordering_cache_off_s = r_off.batch.ordering_seconds;

    anafault::CampaignOptions def_on = e.config.campaign;  // shipped defaults
    anafault::CampaignOptions def_off = def_on;
    def_off.sim.bypass = false;
    const auto rd_on =
        anafault::run_campaign(e.sim_circuit, lift_res.faults, def_on);
    const auto rd_off =
        anafault::run_campaign(e.sim_circuit, lift_res.faults, def_off);
    cb.vco_default_verdicts_identical =
        detected_ids(rd_on) == detected_ids(rd_off);

    // -- OTA: well-behaved campaign; cache on/off and per-device bypass
    // on/off must both be verdict-identical outright.
    circuits::OtaOptions oo;
    oo.with_sources = false;
    const netlist::Circuit ota_dev = circuits::build_ota(oo);
    const layout::Layout lo = layout::generate_cell_layout(ota_dev);
    lift::LiftOptions lopt;
    lopt.net_blocks = circuits::ota_net_blocks();
    const auto ota_faults = lift::extract_faults(
        lo, layout::Technology::single_poly_double_metal(), lopt);
    const netlist::Circuit ota = circuits::build_ota();

    anafault::CampaignOptions ocfg;
    ocfg.detection.observed = {circuits::kOtaOutput};
    ocfg.detection.v_tol = 0.4;
    anafault::CampaignOptions oc_on = ocfg;
    oc_on.sim.sparse_threshold = 0;
    anafault::CampaignOptions oc_off = oc_on;
    oc_off.share_symbolic = false;
    const auto ro_on = anafault::run_campaign(ota, ota_faults.faults, oc_on);
    const auto ro_off = anafault::run_campaign(ota, ota_faults.faults, oc_off);
    cb.ota_cache_verdicts_identical =
        detected_ids(ro_on) == detected_ids(ro_off);

    anafault::CampaignOptions ob_on = ocfg;
    ob_on.sim.device_bypass_tol = 1e-9;
    anafault::CampaignOptions ob_off = ocfg;
    ob_off.sim.bypass = false;
    const auto rb_on = anafault::run_campaign(ota, ota_faults.faults, ob_on);
    const auto rb_off = anafault::run_campaign(ota, ota_faults.faults, ob_off);
    cb.ota_device_bypass_verdicts_identical =
        detected_ids(rb_on) == detected_ids(rb_off);
    cb.ota_device_stamp_skips = rb_on.batch.device_stamp_skips;
    return cb;
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

    // -- Campaign-level: symbolic cache on the paper's circuits.
    std::printf("\n== campaign-shared symbolic kernel ==\n");
    const CampaignBench cb = run_campaign_bench();
    std::printf("  VCO: %zu faults, cache hits %zu/%zu (%.0f%%), detected "
                "on/off %zu/%zu, wall %.2fs/%.2fs\n",
                cb.vco_faults, cb.vco_cache_hits, cb.vco_scheduled,
                100.0 * cb.vco_cache_hit_rate, cb.vco_detected_cache_on,
                cb.vco_detected_cache_off, cb.vco_wall_cache_on_s,
                cb.vco_wall_cache_off_s);
    std::printf("  VCO default-config verdicts (per-device bypass on/off "
                "identical): %s\n",
                cb.vco_default_verdicts_identical ? "yes" : "NO");
    std::printf("  OTA cache verdicts identical: %s, per-device bypass "
                "verdicts identical: %s (skips %zu)\n",
                cb.ota_cache_verdicts_identical ? "yes" : "NO",
                cb.ota_device_bypass_verdicts_identical ? "yes" : "NO",
                cb.ota_device_stamp_skips);

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
    js << "  \"campaign\": {\n";
    js << "    \"vco_faults\": " << cb.vco_faults << ",\n";
    js << "    \"vco_scheduled\": " << cb.vco_scheduled << ",\n";
    js << "    \"vco_cache_hits\": " << cb.vco_cache_hits << ",\n";
    js << "    \"vco_cache_hit_rate\": " << cb.vco_cache_hit_rate << ",\n";
    js << "    \"vco_detected_cache_on\": " << cb.vco_detected_cache_on
       << ",\n";
    js << "    \"vco_detected_cache_off\": " << cb.vco_detected_cache_off
       << ",\n";
    js << "    \"vco_wall_cache_on_s\": " << cb.vco_wall_cache_on_s << ",\n";
    js << "    \"vco_wall_cache_off_s\": " << cb.vco_wall_cache_off_s
       << ",\n";
    js << "    \"vco_ordering_cache_on_s\": " << cb.vco_ordering_cache_on_s
       << ",\n";
    js << "    \"vco_ordering_cache_off_s\": " << cb.vco_ordering_cache_off_s
       << ",\n";
    js << "    \"vco_default_verdicts_identical\": "
       << (cb.vco_default_verdicts_identical ? "true" : "false") << ",\n";
    js << "    \"ota_cache_verdicts_identical\": "
       << (cb.ota_cache_verdicts_identical ? "true" : "false") << ",\n";
    js << "    \"ota_device_bypass_verdicts_identical\": "
       << (cb.ota_device_bypass_verdicts_identical ? "true" : "false")
       << ",\n";
    js << "    \"ota_device_stamp_skips\": " << cb.ota_device_stamp_skips
       << "\n";
    js << "  },\n";
    js << "  \"metrics\": " << obs::Registry::global().to_json("  ") << "\n";
    js << "}\n";
    std::printf("\n  wrote BENCH_kernel_scaling.json\n");
    return 0;
}
