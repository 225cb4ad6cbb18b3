// Incremental-kernel tests: verdict identity of the modified-Newton
// bypass on the paper's full VCO campaign, kernel equivalence (dense vs
// sparse vs bypass) on the OTA campaigns and on non-oscillating fixtures,
// the complex sparse AC path, and the OTA/VCO golden behaviours re-run
// under sparse+bypass.
//
// One physical caveat shapes these tests: the VCO is an *autonomous
// oscillator* integrated at reltol=1e-3, so its phase is kernel-dependent
// -- any change in solver arithmetic (dense vs sparse rounding) shifts
// the switching instants by tolerance-level amounts that accumulate over
// hundreds of cycles.  Faults detectable only through accumulated phase
// wobble (a 100-ohm bridge between two ideal-source-clamped nets leaves
// every voltage nominal) therefore sit at the detection margin under ANY
// kernel change.  The dense path is bitwise-faithful to the seed and is
// the verdict reference; for sparse the tests assert identity for every
// fault with a *robust* margin (accumulated mismatch beyond 5x t_tol or
// below t_tol/5 under the reference kernel) -- which is every fault whose
// verdict is physically meaningful rather than a coin flip of the
// truncation error.

#include "anafault/campaign.h"
#include "anafault/comparator.h"
#include "anafault/fault_models.h"
#include "circuits/ota.h"
#include "circuits/ringosc.h"
#include "circuits/vco.h"
#include "core/cat.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "spice/engine.h"
#include "spice/measure.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace catlift;
using namespace catlift::circuits;
using spice::SimOptions;
using spice::Simulator;

namespace {

constexpr std::size_t kForceDense = static_cast<std::size_t>(-1);
constexpr std::size_t kForceSparse = 0;

SimOptions kernel_options(std::size_t sparse_threshold, bool bypass) {
    SimOptions o;
    o.sparse_threshold = sparse_threshold;
    o.bypass = bypass;
    return o;
}

std::set<int> detected_ids(const anafault::CampaignResult& r) {
    std::set<int> ids;
    for (const auto& f : r.results)
        if (f.detect_time) ids.insert(f.fault_id);
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

} // namespace

// ---------------------------------------------------------------------------
// Bypass: verdict identity on the paper's full VCO campaign

TEST(Kernel, VcoCampaignBypassVerdictIdentity) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);

    anafault::CampaignOptions on = e.config.campaign;
    on.sim.bypass = true;  // campaign default, pinned explicitly
    anafault::CampaignOptions off = on;
    off.sim.bypass = false;

    const auto r_on = anafault::run_campaign(e.sim_circuit, lift_res.faults, on);
    const auto r_off =
        anafault::run_campaign(e.sim_circuit, lift_res.faults, off);
    EXPECT_EQ(r_on.failed(), 0u);
    EXPECT_EQ(detected_ids(r_on), detected_ids(r_off));
    // The campaign default must keep the paper's 100% coverage.
    EXPECT_DOUBLE_EQ(r_on.final_coverage(), 100.0);
}

// ---------------------------------------------------------------------------
// Sparse: verdict identity wherever the margin is physically robust

TEST(Kernel, VcoCampaignSparseRobustVerdictIdentity) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    const anafault::CampaignOptions& copt = e.config.campaign;
    const netlist::TranSpec ts = *e.sim_circuit.tran;
    const double t_tol = copt.detection.t_tol;

    auto accumulated_mismatch = [&](const netlist::Circuit& faulty,
                                    const spice::Waveforms& nominal,
                                    std::size_t threshold) {
        SimOptions so = copt.sim;
        so.sparse_threshold = threshold;
        Simulator sim(faulty, so);
        const auto wf = sim.tran(ts);
        const auto& t = nominal.time();
        const auto& vn = nominal.trace(kVcoOutput);
        const auto& vf = wf.trace(kVcoOutput);
        double acc = 0.0;
        for (std::size_t i = 1; i < t.size(); ++i)
            if (std::fabs(vn[i] - vf[i]) > copt.detection.v_tol)
                acc += t[i] - t[i - 1];
        return acc;
    };

    SimOptions nom_dense = copt.sim;
    nom_dense.sparse_threshold = kForceDense;
    Simulator nd(e.sim_circuit, nom_dense);
    const auto nominal_dense = nd.tran(ts);
    SimOptions nom_sparse = copt.sim;
    nom_sparse.sparse_threshold = kForceSparse;
    Simulator ns(e.sim_circuit, nom_sparse);
    const auto nominal_sparse = ns.tran(ts);

    std::size_t robust = 0;
    for (const auto& f : lift_res.faults.faults) {
        const auto faulty = anafault::inject(e.sim_circuit, f, copt.injection);
        const double acc_d =
            accumulated_mismatch(faulty, nominal_dense, kForceDense);
        if (acc_d > 5.0 * t_tol) {
            const double acc_s =
                accumulated_mismatch(faulty, nominal_sparse, kForceSparse);
            EXPECT_GT(acc_s, t_tol)
                << "robustly detected fault lost under sparse: "
                << f.describe();
            ++robust;
        } else if (acc_d < t_tol / 5.0) {
            const double acc_s =
                accumulated_mismatch(faulty, nominal_sparse, kForceSparse);
            EXPECT_LT(acc_s, t_tol)
                << "robustly undetected fault gained under sparse: "
                << f.describe();
            ++robust;
        }
        // Faults between the bands ride the truncation-error margin of an
        // autonomous oscillator; their verdict is kernel-arithmetic-
        // dependent by physics (see file header).
    }
    // The robust set must dominate the campaign, or this test is vacuous.
    EXPECT_GE(robust, lift_res.faults.size() * 3 / 4);
}

TEST(Kernel, OtaTranCampaignVerdictIdenticalAcrossKernels) {
    const OtaCampaignFixture f = ota_fixture();
    anafault::CampaignOptions opt = f.opt;

    opt.sim = kernel_options(kForceDense, false);
    const auto dense = anafault::run_campaign(f.ckt, f.faults, opt);
    EXPECT_EQ(dense.failed(), 0u);
    const auto ref = detected_ids(dense);
    EXPECT_FALSE(ref.empty());

    for (const bool bypass : {false, true}) {
        for (const std::size_t thr : {kForceDense, kForceSparse}) {
            if (thr == kForceDense && !bypass) continue;  // the reference
            opt.sim = kernel_options(thr, bypass);
            const auto r = anafault::run_campaign(f.ckt, f.faults, opt);
            SCOPED_TRACE((thr == kForceSparse ? "sparse" : "dense") +
                         std::string(bypass ? "+bypass" : ""));
            EXPECT_EQ(detected_ids(r), ref);
            EXPECT_EQ(r.failed(), 0u);
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel equivalence on non-oscillating circuits

TEST(Kernel, InverterChainTransientEquivalentDenseSparse) {
    // 40 stages -> 42 unknowns: above the default threshold, well-behaved
    // (a settling chain, no autonomous phase).  The kernels must agree to
    // far better than any detection tolerance.
    const netlist::Circuit ckt = build_inverter_chain(40);

    SimOptions dense = kernel_options(kForceDense, false);
    Simulator sd(ckt, dense);
    const auto wd = sd.tran();

    SimOptions sparse = kernel_options(kForceSparse, false);
    Simulator ss(ckt, sparse);
    const auto ws = ss.tran();

    ASSERT_EQ(wd.points(), ws.points());
    for (int stage : {1, 20, 40}) {
        const std::string node = "c" + std::to_string(stage);
        const auto& a = wd.trace(node);
        const auto& b = ws.trace(node);
        double worst = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i)
            worst = std::max(worst, std::fabs(a[i] - b[i]));
        EXPECT_LT(worst, 0.05) << node;
    }
    // The sparse kernel must actually have run incrementally: one AMD
    // analysis per (pattern, stepsize regime), everything else
    // pattern-reused refactors.
    EXPECT_GT(ss.stats().sparse_refactors, 0u);
    EXPECT_GT(ss.stats().sparse_refactors, ss.stats().sparse_full_factors);
}

TEST(Kernel, BypassFiresOnQuiescentTailAndMatchesFullNewton) {
    // After the pulse settles the chain is quiescent: the bypass must
    // collapse those solves to triangular substitutions without moving
    // the waveform beyond its tolerance.
    const netlist::Circuit ckt = build_inverter_chain(12);

    Simulator full(ckt, kernel_options(kForceDense, false));
    const auto wf_full = full.tran();
    EXPECT_EQ(full.stats().bypass_solves, 0u);

    Simulator byp(ckt, kernel_options(kForceDense, true));
    const auto wf_byp = byp.tran();
    EXPECT_GT(byp.stats().bypass_solves, 100u);
    EXPECT_LT(byp.stats().lu_factorizations, full.stats().lu_factorizations);

    const std::string out = "c12";
    const auto& a = wf_full.trace(out);
    const auto& b = wf_byp.trace(out);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::fabs(a[i] - b[i]));
    EXPECT_LT(worst, 1e-3);
}

TEST(Kernel, DcSweepEquivalentDenseSparse) {
    const netlist::Circuit ckt = build_inverter_chain(20);
    std::vector<double> levels;
    for (double v = 0.0; v <= 5.0; v += 0.5) levels.push_back(v);

    const auto rd = spice::dc_sweep(ckt, "VIN", levels,
                                    kernel_options(kForceDense, false));
    const auto rs = spice::dc_sweep(ckt, "VIN", levels,
                                    kernel_options(kForceSparse, false));
    ASSERT_EQ(rd.size(), rs.size());
    for (std::size_t i = 0; i < rd.size(); ++i) {
        ASSERT_TRUE(rd[i].converged);
        ASSERT_TRUE(rs[i].converged);
        for (const auto& [node, v] : rd[i].voltages)
            EXPECT_NEAR(rs[i].voltages.at(node), v, 1e-6)
                << "level " << levels[i] << " node " << node;
    }
}

// ---------------------------------------------------------------------------
// Complex sparse AC path

TEST(Kernel, OtaAcSweepSparseMatchesDense) {
    OtaOptions o;
    netlist::Circuit ckt = build_ota(o);
    ckt.device("VDD").source = netlist::SourceSpec::make_dc(5.0);
    netlist::SourceSpec vin = netlist::SourceSpec::make_dc(2.5);
    vin.ac_mag = 1.0;
    ckt.device("VIN").source = vin;

    spice::AcSpec spec;
    spec.fstart = 1e3;
    spec.fstop = 1e9;

    Simulator sd(ckt, kernel_options(kForceDense, false));
    const auto rd = sd.ac(spec);
    Simulator ss(ckt, kernel_options(kForceSparse, false));
    const auto rs = ss.ac(spec);

    ASSERT_EQ(rd.points(), rs.points());
    for (std::size_t i = 0; i < rd.points(); ++i)
        EXPECT_NEAR(rs.mag_db("out", i), rd.mag_db("out", i), 1e-6);
    // Every point after the first reuses the complex pattern.
    EXPECT_GT(ss.stats().sparse_refactors, rd.points() - 5);
    const auto cd = rd.corner_frequency("out");
    const auto cs = rs.corner_frequency("out");
    ASSERT_TRUE(cd.has_value());
    ASSERT_TRUE(cs.has_value());
    EXPECT_NEAR(*cs / *cd, 1.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Golden behaviours re-run under sparse+bypass

TEST(Kernel, VcoGoldenUnderSparseBypass) {
    SimOptions so = kernel_options(kForceSparse, true);
    so.uic = true;

    auto period_at = [&](double vctrl) {
        VcoOptions vo;
        vo.vctrl = vctrl;
        Simulator sim(build_vco(vo), so);
        const auto wf = sim.tran();
        return spice::estimate_period(wf, kVcoOutput, 2.5, 1e-6, 4e-6);
    };

    VcoOptions vo;
    Simulator sim(build_vco(vo), so);
    const auto wf = sim.tran();
    EXPECT_GT(spice::swing(wf, kVcoOutput, 1e-6, 4e-6), 4.5);
    const auto period =
        spice::estimate_period(wf, kVcoOutput, 2.5, 1e-6, 4e-6);
    ASSERT_TRUE(period.has_value());
    EXPECT_GT(*period, 0.2e-6);
    EXPECT_LT(*period, 1.2e-6);

    const auto slow = period_at(2.2);
    const auto fast = period_at(3.0);
    ASSERT_TRUE(slow.has_value());
    ASSERT_TRUE(fast.has_value());
    EXPECT_LT(*fast, *slow * 0.8);
}

TEST(Kernel, OtaGoldenUnderSparseBypass) {
    SimOptions so = kernel_options(kForceSparse, true);
    so.uic = true;
    Simulator sim(build_ota(), so);
    const auto wf = sim.tran();
    double max_err = 0.0;
    for (double t = 1e-6; t < 4e-6; t += 1e-8)
        max_err = std::max(max_err,
                           std::fabs(wf.at("out", t) - wf.at("inp", t)));
    EXPECT_LT(max_err, 0.1);
    EXPECT_NEAR(spice::swing(wf, "out", 1e-6, 4e-6), 1.0, 0.1);
}

TEST(Kernel, SingularSystemFailsGracefullyWithBypassOn) {
    // Two ideal sources fighting over one node: the MNA matrix is
    // singular at every candidate point.  Every kernel configuration
    // must report non-convergence, not trip over a bypass that points at
    // a failed factorization (the factorization is only marked reusable
    // after it succeeds).
    netlist::Circuit c;
    c.title = "vsource conflict";
    c.add_vsource("V1", "a", "0", netlist::SourceSpec::make_dc(5.0));
    c.add_vsource("V2", "a", "0", netlist::SourceSpec::make_dc(3.0));
    c.add_resistor("R1", "a", "0", 1e3);
    for (const std::size_t thr : {kForceDense, kForceSparse}) {
        Simulator sim(c, kernel_options(thr, true));
        const auto r = sim.dc_op();
        SCOPED_TRACE(thr == kForceSparse ? "sparse" : "dense");
        EXPECT_FALSE(r.converged);
        // Retrying on the same simulator must stay graceful too (this is
        // the dv-ladder / sweep-retry shape that used to hit a stale
        // bypass).
        EXPECT_FALSE(sim.dc_op().converged);
    }
}

TEST(Kernel, RingOscillatorRunsOnBothKernels) {
    for (const std::size_t thr : {kForceDense, kForceSparse}) {
        RingOscOptions ro;
        ro.stages = 25;
        SimOptions so = kernel_options(thr, true);
        so.uic = true;
        Simulator sim(build_ring_oscillator(ro), so);
        const auto wf = sim.tran();
        SCOPED_TRACE(thr == kForceSparse ? "sparse" : "dense");
        EXPECT_GT(spice::swing(wf, ring_node(0), 0.4e-6, 1e-6), 4.0);
    }
}
