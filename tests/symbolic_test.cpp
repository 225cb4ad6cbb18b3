// Campaign-shared symbolic kernel tests: verdict identity of the shared
// symbolic cache (exact on the well-behaved OTA campaign, robust-margin on
// the autonomous VCO -- see tests/kernel_test.cpp's header for why the
// VCO's margin-rider faults flip under ANY pivot-order change), the
// >= 90% cache hit-rate acceptance bar, the per-device bypass (verdict
// identity on OTA, bitwise-neutral replay at the campaign default
// device_bypass_tol = 0), ordering patching for injected unknowns,
// and the AC/DC campaign result stores + incremental cross-revision
// runners.

#include "anafault/campaign.h"
#include "anafault/incremental.h"
#include "circuits/ota.h"
#include "circuits/vco.h"
#include "core/cat.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "spice/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

using namespace catlift;
using namespace catlift::circuits;
using spice::SimOptions;
using spice::Simulator;

namespace {

constexpr std::size_t kForceSparse = 0;

std::set<int> detected_ids(const anafault::CampaignResult& r) {
    std::set<int> ids;
    for (const auto& f : r.results)
        if (f.detect_time) ids.insert(f.fault_id);
    return ids;
}

std::set<int> detected_ids(const anafault::AcCampaignResult& r) {
    std::set<int> ids;
    for (const auto& f : r.results)
        if (f.detected) ids.insert(f.fault_id);
    return ids;
}

std::set<int> detected_ids(const anafault::DcScreenResult& r) {
    std::set<int> ids;
    for (const auto& f : r.results)
        if (f.detected) ids.insert(f.fault_id);
    return ids;
}

struct OtaCampaignFixture {
    netlist::Circuit ckt;
    lift::FaultList faults;
    anafault::CampaignOptions opt;
};

OtaCampaignFixture ota_fixture() {
    OtaOptions o;
    o.with_sources = false;
    const netlist::Circuit dev = build_ota(o);
    const layout::Layout lo = layout::generate_cell_layout(dev);
    lift::LiftOptions lopt;
    lopt.net_blocks = ota_net_blocks();
    const auto lift_res = lift::extract_faults(
        lo, layout::Technology::single_poly_double_metal(), lopt);
    OtaCampaignFixture f;
    f.ckt = build_ota();
    f.faults = lift_res.faults;
    f.opt.detection.observed = {kOtaOutput};
    f.opt.detection.v_tol = 0.4;
    return f;
}

std::string tmp_store(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

// RC lowpass with an AC-active source: the AC campaign fixture.
netlist::Circuit rc_lowpass() {
    netlist::Circuit c;
    c.title = "rc lowpass";
    netlist::SourceSpec vin = netlist::SourceSpec::make_dc(2.5);
    vin.ac_mag = 1.0;
    c.add_vsource("V1", "in", "0", vin);
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_capacitor("C1", "out", "0", 1e-9);
    return c;
}

lift::Fault make_short(int id, const std::string& a, const std::string& b,
                       double prob = 1e-8) {
    lift::Fault f;
    f.id = id;
    f.kind = lift::FaultKind::LocalShort;
    f.mechanism = "m";
    f.probability = prob;
    f.net_a = a;
    f.net_b = b;
    return f;
}

lift::Fault make_open(int id, const std::string& net,
                      const std::string& device, double prob = 1e-8) {
    lift::Fault f;
    f.id = id;
    f.kind = lift::FaultKind::LineOpen;
    f.mechanism = "m";
    f.probability = prob;
    f.net = net;
    f.group_b = {{device, 0}};
    return f;
}

// 10V divider: the DC screen fixture.
netlist::Circuit divider() {
    netlist::Circuit c;
    c.title = "divider";
    c.add_vsource("V1", "in", "0", netlist::SourceSpec::make_dc(10.0));
    c.add_resistor("R1", "in", "mid", 1e3);
    c.add_resistor("R2", "mid", "0", 1e3);
    return c;
}

} // namespace

// ---------------------------------------------------------------------------
// Symbolic cache: verdict identity and hit rate

TEST(Symbolic, OtaCampaignCacheVerdictIdentityAndFullHitRate) {
    const OtaCampaignFixture f = ota_fixture();
    anafault::CampaignOptions on = f.opt;
    on.sim.sparse_threshold = kForceSparse;
    anafault::CampaignOptions off = on;
    off.share_symbolic = false;

    const auto r_on = anafault::run_campaign(f.ckt, f.faults, on);
    const auto r_off = anafault::run_campaign(f.ckt, f.faults, off);
    EXPECT_EQ(r_on.failed(), 0u);
    EXPECT_EQ(detected_ids(r_on), detected_ids(r_off));
    EXPECT_FALSE(detected_ids(r_on).empty());
    // Every scheduled kernel adopted the nominal ordering; none with the
    // cache off.
    EXPECT_GT(r_on.batch.scheduled, 0u);
    EXPECT_EQ(r_on.batch.symbolic_cache_hits, r_on.batch.scheduled);
    EXPECT_EQ(r_off.batch.symbolic_cache_hits, 0u);
}

TEST(Symbolic, VcoCampaignCacheHitRateAndRobustVerdictIdentity) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);

    anafault::CampaignOptions on = e.config.campaign;
    on.sim.sparse_threshold = kForceSparse;
    anafault::CampaignOptions off = on;
    off.share_symbolic = false;

    const auto r_on = anafault::run_campaign(e.sim_circuit, lift_res.faults, on);
    const auto r_off =
        anafault::run_campaign(e.sim_circuit, lift_res.faults, off);
    EXPECT_EQ(r_on.failed(), 0u);

    // The acceptance bar: >= 90% of the campaign's kernel builds adopt the
    // shared analysis (here: all of them).
    ASSERT_GT(r_on.batch.scheduled, 0u);
    EXPECT_GE(10 * r_on.batch.symbolic_cache_hits,
              9 * r_on.batch.scheduled);

    // Verdict identity wherever the margin is physically robust: a fault
    // whose verdict differs between the two orderings must be a
    // margin-rider under the seed-faithful dense reference (accumulated
    // mismatch within [t_tol/5, 5*t_tol]) -- the set the kernel_test
    // header documents as kernel-arithmetic-dependent by physics.
    const auto ids_on = detected_ids(r_on);
    const auto ids_off = detected_ids(r_off);
    std::set<int> differing;
    for (int id : ids_on)
        if (!ids_off.count(id)) differing.insert(id);
    for (int id : ids_off)
        if (!ids_on.count(id)) differing.insert(id);
    // The overwhelming majority must agree outright.
    EXPECT_LE(differing.size(), lift_res.faults.size() / 10);

    if (!differing.empty()) {
        const netlist::TranSpec ts = *e.sim_circuit.tran;
        const double t_tol = e.config.campaign.detection.t_tol;
        SimOptions dense = e.config.campaign.sim;
        dense.sparse_threshold = static_cast<std::size_t>(-1);
        Simulator nd(e.sim_circuit, dense);
        const auto nominal = nd.tran(ts);
        for (const lift::Fault& f : lift_res.faults.faults) {
            if (!differing.count(f.id)) continue;
            const auto faulty =
                anafault::inject(e.sim_circuit, f, e.config.campaign.injection);
            Simulator sim(faulty, dense);
            const auto wf = sim.tran(ts);
            const auto& t = nominal.time();
            const auto& vn = nominal.trace(kVcoOutput);
            const auto& vf = wf.trace(kVcoOutput);
            double acc = 0.0;
            for (std::size_t i = 1; i < t.size(); ++i)
                if (std::fabs(vn[i] - vf[i]) >
                    e.config.campaign.detection.v_tol)
                    acc += t[i] - t[i - 1];
            EXPECT_GT(acc, t_tol / 5.0)
                << "robustly undetected fault flipped by the cache: "
                << f.describe();
            EXPECT_LT(acc, 5.0 * t_tol)
                << "robustly detected fault flipped by the cache: "
                << f.describe();
        }
    }
}

TEST(Symbolic, CachePatchesInjectedUnknownsToTheEnd) {
    // An open fault splits a net: the faulty circuit carries a fresh
    // "flt*" node the nominal ordering has never seen.  The patched order
    // appends it; the kernel must factor and integrate correctly.
    const OtaCampaignFixture f = ota_fixture();
    SimOptions so;
    so.uic = true;
    so.sparse_threshold = kForceSparse;
    Simulator nominal(f.ckt, so);
    const auto wf_nom = nominal.tran();
    const auto cache = nominal.symbolic_cache();
    ASSERT_TRUE(cache != nullptr);
    EXPECT_EQ(cache->rank.size(), nominal.unknowns());

    // A terminal open adds a fresh "flt*" unknown through the split.
    netlist::Circuit faulty = f.ckt;
    std::string mos_name;
    for (const netlist::Device& d : faulty.devices)
        if (d.kind == netlist::DeviceKind::Mosfet) {
            mos_name = d.name;
            break;
        }
    ASSERT_FALSE(mos_name.empty());
    anafault::inject_terminal_open(faulty, lift::TerminalRef{mos_name, 0},
                                   f.opt.injection);

    SimOptions cached = so;
    cached.symbolic_cache = cache;
    Simulator sc(faulty, cached);
    EXPECT_GT(sc.unknowns(), nominal.unknowns());
    const auto wf_c = sc.tran();
    EXPECT_EQ(sc.stats().symbolic_cache_hits, 1u);

    Simulator su(faulty, so);  // no cache: its own minimum degree
    const auto wf_u = su.tran();
    EXPECT_EQ(su.stats().symbolic_cache_hits, 0u);

    // Same circuit, same grid; the orderings differ only in rounding.
    ASSERT_EQ(wf_c.points(), wf_u.points());
    const auto& a = wf_c.trace(kOtaOutput);
    const auto& b = wf_u.trace(kOtaOutput);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::fabs(a[i] - b[i]));
    EXPECT_LT(worst, 1e-3);
}

TEST(Symbolic, CacheIsNullOnTheDensePath) {
    const OtaCampaignFixture f = ota_fixture();
    SimOptions so;
    so.uic = true;
    so.sparse_threshold = static_cast<std::size_t>(-1);
    Simulator sim(f.ckt, so);
    sim.tran();
    EXPECT_TRUE(sim.symbolic_cache() == nullptr);
}

// ---------------------------------------------------------------------------
// Per-device bypass

TEST(Symbolic, OtaCampaignPerDeviceBypassVerdictIdentity) {
    // Satellite (b): per-device bypass (device_bypass_tol large enough to
    // actually skip evaluations) vs full stamping, on the well-behaved
    // OTA tran campaign -- verdicts must be identical.
    const OtaCampaignFixture f = ota_fixture();
    anafault::CampaignOptions on = f.opt;
    on.sim.bypass = true;
    on.sim.device_bypass_tol = 1e-9;
    anafault::CampaignOptions off = f.opt;
    off.sim.bypass = false;

    const auto r_on = anafault::run_campaign(f.ckt, f.faults, on);
    const auto r_off = anafault::run_campaign(f.ckt, f.faults, off);
    EXPECT_EQ(r_on.failed(), 0u);
    EXPECT_EQ(detected_ids(r_on), detected_ids(r_off));
    EXPECT_GT(r_on.batch.device_stamp_skips, 0u);
    EXPECT_EQ(r_off.batch.device_stamp_skips, 0u);
}

TEST(Symbolic, DeviceReplayAtZeroToleranceMatchesLegacyBypassContract) {
    // The campaign default (device_bypass_tol = 0) replays a device only
    // when its terminals are bitwise unchanged -- the replayed stamp then
    // equals a fresh evaluation bit for bit, so the per-device machinery
    // adds NO perturbation beyond the whole-solve factorization bypass
    // the kernel has always had.  The waveform bound that pinned the
    // legacy bypass must therefore keep holding unchanged.
    const netlist::Circuit ckt = build_ota();
    SimOptions on;
    on.uic = true;
    on.bypass = true;
    on.device_bypass_tol = 0.0;
    SimOptions off = on;
    off.bypass = false;

    Simulator sa(ckt, on);
    const auto wa = sa.tran();
    Simulator sb(ckt, off);
    const auto wb = sb.tran();
    EXPECT_GT(sa.stats().bypass_solves, 0u);
    ASSERT_EQ(wa.points(), wb.points());
    const auto& a = wa.trace(kOtaOutput);
    const auto& b = wb.trace(kOtaOutput);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::fabs(a[i] - b[i]));
    EXPECT_LT(worst, 1e-3);
}

// ---------------------------------------------------------------------------
// AC campaign store + incremental runner

TEST(Symbolic, AcCampaignStoreRoundTripAndResume) {
    const netlist::Circuit ckt = rc_lowpass();
    lift::FaultList fl;
    fl.faults.push_back(make_short(1, "out", "0"));
    fl.faults.push_back(make_open(2, "out", "C1"));

    anafault::AcCampaignOptions opt;
    opt.observed = {"out"};
    opt.sweep.fstart = 1e3;
    opt.sweep.fstop = 1e8;
    opt.result_store = tmp_store("symbolic_ac_store.bin");
    const auto cold = anafault::run_ac_campaign(ckt, fl, opt);
    EXPECT_EQ(cold.batch.resumed, 0u);
    EXPECT_GT(cold.batch.scheduled, 0u);

    opt.resume = true;
    const auto warm = anafault::run_ac_campaign(ckt, fl, opt);
    EXPECT_EQ(warm.batch.resumed, 2u);
    EXPECT_EQ(warm.batch.scheduled, 0u);
    EXPECT_EQ(detected_ids(warm), detected_ids(cold));
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (std::size_t i = 0; i < warm.results.size(); ++i) {
        EXPECT_EQ(warm.results[i].detected, cold.results[i].detected);
        EXPECT_NEAR(warm.results[i].max_deviation_db,
                    cold.results[i].max_deviation_db, 1e-12);
        if (cold.results[i].detect_freq) {
            EXPECT_DOUBLE_EQ(*warm.results[i].detect_freq,
                             *cold.results[i].detect_freq);
        }
    }
    std::filesystem::remove(opt.result_store);
}

TEST(Symbolic, IncrementalAcCampaignCarriesUnchangedSignatures) {
    const netlist::Circuit ckt = rc_lowpass();
    lift::FaultList baseline;
    baseline.faults.push_back(make_short(1, "out", "0"));
    baseline.faults.push_back(make_open(2, "out", "C1"));

    anafault::AcCampaignOptions copt;
    copt.observed = {"out"};
    copt.sweep.fstart = 1e3;
    copt.sweep.fstop = 1e8;
    copt.result_store = tmp_store("symbolic_ac_baseline.bin");
    const auto base_run = anafault::run_ac_campaign(ckt, baseline, copt);
    ASSERT_EQ(base_run.results.size(), 2u);

    // Revision: fault 1 unchanged, fault 2's probability moved 10x, one
    // added short.
    lift::FaultList revision;
    revision.faults.push_back(make_short(1, "out", "0"));
    revision.faults.push_back(make_open(2, "out", "C1", 1e-7));
    revision.faults.push_back(make_short(3, "in", "out"));

    anafault::IncrementalAcOptions iopt;
    iopt.campaign = copt;
    iopt.campaign.result_store = tmp_store("symbolic_ac_merged.bin");
    iopt.baseline_store = copt.result_store;
    const auto inc =
        anafault::run_incremental_ac_campaign(ckt, baseline, revision, iopt);
    EXPECT_TRUE(inc.inc.baseline_manifest_matched);
    EXPECT_EQ(inc.inc.carried, 1u);
    EXPECT_EQ(inc.inc.resimulated, 2u);
    EXPECT_EQ(inc.inc.added, 1u);
    EXPECT_EQ(inc.inc.probability_changed, 1u);
    ASSERT_EQ(inc.campaign.results.size(), 3u);
    EXPECT_TRUE(inc.campaign.results[0].carried);
    EXPECT_FALSE(inc.campaign.results[1].carried);

    // Verdicts identical to a cold full campaign on the revision.
    anafault::AcCampaignOptions cold_opt = copt;
    cold_opt.result_store.clear();
    const auto cold = anafault::run_ac_campaign(ckt, revision, cold_opt);
    EXPECT_EQ(detected_ids(inc.campaign), detected_ids(cold));

    std::filesystem::remove(copt.result_store);
    std::filesystem::remove(iopt.campaign.result_store);
}

// ---------------------------------------------------------------------------
// DC screen store + incremental runner

TEST(Symbolic, DcScreenStoreRoundTripAndIncrementalCarry) {
    const netlist::Circuit ckt = divider();
    lift::FaultList baseline;
    baseline.faults.push_back(make_short(1, "mid", "0"));
    baseline.faults.push_back(make_open(2, "mid", "R2"));

    anafault::DcScreenOptions copt;
    copt.observed = {"mid"};
    copt.result_store = tmp_store("symbolic_dc_baseline.bin");
    const auto base_run = anafault::run_dc_screen(ckt, baseline, copt);
    EXPECT_EQ(base_run.coverage(), 100.0);
    EXPECT_EQ(base_run.batch.resumed, 0u);

    // Resume round trip.
    anafault::DcScreenOptions ropt = copt;
    ropt.resume = true;
    const auto warm = anafault::run_dc_screen(ckt, baseline, ropt);
    EXPECT_EQ(warm.batch.resumed, 2u);
    EXPECT_EQ(warm.batch.scheduled, 0u);
    EXPECT_EQ(detected_ids(warm), detected_ids(base_run));
    for (const auto& r : warm.results) {
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(r.strategy, "stored");
    }

    // Incremental: one carried, one changed, one added.
    lift::FaultList revision;
    revision.faults.push_back(make_short(1, "mid", "0"));
    revision.faults.push_back(make_open(2, "mid", "R2", 1e-7));
    revision.faults.push_back(make_short(3, "in", "mid"));

    anafault::IncrementalDcOptions iopt;
    iopt.campaign = copt;
    iopt.campaign.result_store = tmp_store("symbolic_dc_merged.bin");
    iopt.baseline_store = copt.result_store;
    const auto inc =
        anafault::run_incremental_dc_screen(ckt, baseline, revision, iopt);
    EXPECT_TRUE(inc.inc.baseline_manifest_matched);
    EXPECT_EQ(inc.inc.carried, 1u);
    EXPECT_EQ(inc.inc.resimulated, 2u);
    ASSERT_EQ(inc.campaign.results.size(), 3u);
    EXPECT_TRUE(inc.campaign.results[0].carried);

    anafault::DcScreenOptions cold_opt = copt;
    cold_opt.result_store.clear();
    const auto cold = anafault::run_dc_screen(ckt, revision, cold_opt);
    EXPECT_EQ(detected_ids(inc.campaign), detected_ids(cold));

    // A foreign baseline store (different knobs) blocks carrying.
    anafault::IncrementalDcOptions foreign = iopt;
    foreign.campaign.v_tol = 1.0;  // different manifest
    const auto blocked =
        anafault::run_incremental_dc_screen(ckt, baseline, revision, foreign);
    EXPECT_FALSE(blocked.inc.baseline_manifest_matched);
    EXPECT_EQ(blocked.inc.carried, 0u);
    EXPECT_EQ(blocked.inc.resimulated, 3u);

    std::filesystem::remove(copt.result_store);
    std::filesystem::remove(iopt.campaign.result_store);
}

// ---------------------------------------------------------------------------
// Record round trips

// Every field both result types share with the store record (identity,
// containment, kernel cost, provenance) survives the round trip; a field
// dropped from the converters fails here.
template <class R>
void set_shared_fields(R& r, int id) {
    r.fault_id = id;
    r.description = "short x|y #" + std::to_string(id);
    r.probability = 3e-9;
    r.error = "attempt 1 failed";
    r.sim_seconds = 0.25;
    r.nr_iterations = 42;
    r.symbolic_cache_hits = 1;
    r.ordering_seconds = 0.003;
    r.numeric_seconds = 0.01;
    r.carried = true;
    r.attempts = 3;
    r.quarantined = true;
    r.retry_log = "attempt 1 [base]: x; attempt 2 [gmin]: y";
}

template <class R>
void expect_shared_fields(const R& r, int id) {
    EXPECT_EQ(r.fault_id, id);
    EXPECT_EQ(r.description, "short x|y #" + std::to_string(id));
    EXPECT_DOUBLE_EQ(r.probability, 3e-9);
    EXPECT_EQ(r.error, "attempt 1 failed");
    EXPECT_DOUBLE_EQ(r.sim_seconds, 0.25);
    EXPECT_EQ(static_cast<long>(r.nr_iterations), 42L);
    EXPECT_EQ(r.symbolic_cache_hits, 1u);
    EXPECT_DOUBLE_EQ(r.ordering_seconds, 0.003);
    EXPECT_DOUBLE_EQ(r.numeric_seconds, 0.01);
    EXPECT_TRUE(r.carried);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.retry_log, "attempt 1 [base]: x; attempt 2 [gmin]: y");
}

TEST(Symbolic, AcAndDcRecordRoundTrips) {
    anafault::AcFaultResult a;
    set_shared_fields(a, 7);
    a.simulated = true;
    a.detected = true;
    a.detect_freq = 1.5e6;
    a.max_deviation_db = 12.5;
    a.points_saved = 17;
    const auto ar = anafault::ac_from_record(anafault::ac_to_record(a));
    expect_shared_fields(ar, 7);
    EXPECT_TRUE(ar.simulated);
    EXPECT_TRUE(ar.detected);
    EXPECT_DOUBLE_EQ(*ar.detect_freq, 1.5e6);
    EXPECT_DOUBLE_EQ(ar.max_deviation_db, 12.5);
    EXPECT_EQ(ar.points_saved, 17u);

    anafault::DcFaultResult d;
    set_shared_fields(d, 9);
    d.converged = true;
    d.detected = true;
    d.max_deviation = 4.75;
    const auto dr = anafault::dc_from_record(anafault::dc_to_record(d));
    expect_shared_fields(dr, 9);
    EXPECT_TRUE(dr.converged);
    EXPECT_TRUE(dr.detected);
    EXPECT_DOUBLE_EQ(dr.max_deviation, 4.75);
    EXPECT_EQ(dr.strategy, "stored");

    // Undetected stays undetected through the round trip.
    d.detected = false;
    EXPECT_FALSE(anafault::dc_from_record(anafault::dc_to_record(d)).detected);
}
