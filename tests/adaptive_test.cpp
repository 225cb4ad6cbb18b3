// Adaptive LTE-controlled transient kernel and the per-analysis observer
// protocol: golden-waveform regression against the fixed grid (VCO and
// OTA decks), campaign verdict determinism with and without adaptive
// stepping, AC mid-sweep early abort, and warm-started DC solves.

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/comparator.h"
#include "anafault/dc_campaign.h"
#include "circuits/ota.h"
#include "circuits/vco.h"
#include "core/cat.h"
#include "lift/extract_faults.h"
#include "spice/engine.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace catlift;
using namespace catlift::netlist;
using namespace catlift::spice;

namespace {

Circuit rc_step(double r, double c) {
    Circuit ckt;
    ckt.title = "rc step";
    ckt.add_vsource("V1", "in", "0",
                    SourceSpec::make_pulse(0, 5, 0, 1e-9, 1e-9, 1, 2));
    ckt.add_resistor("R1", "in", "out", r);
    ckt.add_capacitor("C1", "out", "0", c);
    return ckt;
}

Circuit rc_lowpass() {
    Circuit ckt;
    ckt.title = "rc lowpass";
    SourceSpec src = SourceSpec::make_dc(0.0);
    src.ac_mag = 1.0;
    ckt.add_vsource("V1", "in", "0", src);
    ckt.add_resistor("R1", "in", "out", 1e3);
    ckt.add_capacitor("C1", "out", "0", 1e-9);
    return ckt;
}

lift::Fault cap_short_fault() {
    lift::Fault f;
    f.id = 1;
    f.kind = lift::FaultKind::LocalShort;
    f.mechanism = "m1_short";
    f.probability = 1e-3;
    f.net_a = "out";
    f.net_b = "0";
    return f;
}

/// Max |a - b| over one trace, sampled on a's own time axis.
double max_trace_deviation(const Waveforms& a, const Waveforms& b,
                           const std::string& node) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.points(); ++i)
        worst = std::max(worst, std::fabs(a.trace(node)[i] -
                                          b.at(node, a.time()[i])));
    return worst;
}

} // namespace

// ---------------------------------------------------------------------------
// Adaptive transient kernel

TEST(AdaptiveTran, RcMatchesClosedFormWithFarFewerSolves) {
    Circuit ckt = rc_step(1e3, 1e-9);
    SimOptions opt;
    opt.uic = true;
    opt.cmin = 0.0;
    opt.adaptive = true;
    Simulator sim(ckt, opt);
    const TranSpec ts{1e-8, 5e-6, 0.0};  // 500 grid steps, tau = 1 us
    const auto wf = sim.tran(ts);

    // Accuracy against the closed form, same tolerance as the fixed grid.
    for (double t : {0.5e-6, 1e-6, 2e-6, 4e-6}) {
        const double expect = 5.0 * (1.0 - std::exp(-t / 1e-6));
        EXPECT_NEAR(wf.at("out", t), expect, 0.03) << "t=" << t;
    }
    // The waveform still carries every grid sample...
    EXPECT_EQ(wf.points(), 501u);
    EXPECT_NEAR(wf.time().back(), 5e-6, 1e-15);
    // ...but the settled tail was integrated in strides, not per sample.
    EXPECT_LT(sim.stats().tran_steps, 500u);
    EXPECT_GT(sim.stats().grid_points_interpolated, 100u);
    EXPECT_EQ(sim.stats().tran_steps + sim.stats().grid_points_interpolated,
              500u);
}

TEST(AdaptiveTran, AgreesWithFixedGridOnRc) {
    const TranSpec ts{1e-8, 5e-6, 0.0};
    auto run = [&](bool adaptive) {
        SimOptions opt;
        opt.uic = true;
        opt.cmin = 0.0;
        opt.adaptive = adaptive;
        Simulator sim(rc_step(1e3, 1e-9), opt);
        return sim.tran(ts);
    };
    const auto fixed = run(false);
    const auto adaptive = run(true);
    ASSERT_EQ(fixed.points(), adaptive.points());
    EXPECT_LT(max_trace_deviation(fixed, adaptive, "out"), 0.05);
}

TEST(AdaptiveTran, ObserverAbortsAtInterpolatedSamplesToo) {
    // Same shape as the fixed-grid observer test: stop at t >= 1us of a
    // 4us / 400-step run.  The adaptive kernel fires the observer at every
    // grid sample (solved or interpolated), so the accounting is identical.
    Circuit ckt = rc_step(1e3, 1e-9);
    SimOptions opt;
    opt.uic = true;
    opt.adaptive = true;
    Simulator sim(ckt, opt);
    const auto wf = sim.tran(TranSpec{1e-8, 4e-6, 0.0},
                             [](double t, const Waveforms&) {
                                 return t < 1e-6 - 1e-15;
                             });
    EXPECT_NEAR(wf.time().back(), 1e-6, 1e-12);
    EXPECT_EQ(wf.points(), 101u);
    EXPECT_EQ(sim.stats().steps_saved, 300u);
}

TEST(AdaptiveTran, PulseAfterQuiescenceIsNotSteppedOver) {
    // Regression: a stride grown across a quiescent stretch samples the
    // sources only at its endpoint, so a pulse inside the stride would be
    // silently integrated away unless the kernel refuses strides that
    // cross a source nonlinearity.  5 V pulse at 2.5 us on a 4 us grid,
    // preceded by 250 grid steps of nothing.
    auto run = [&](bool adaptive) {
        Circuit ckt;
        ckt.add_vsource("V1", "in", "0",
                        SourceSpec::make_pulse(0, 5, 2.5e-6, 1e-9, 1e-9,
                                               0.2e-6, 10e-6));
        ckt.add_resistor("R1", "in", "out", 1e3);
        ckt.add_capacitor("C1", "out", "0", 1e-11);  // tau = 10 ns
        SimOptions opt;
        opt.uic = true;
        opt.cmin = 0.0;
        opt.adaptive = adaptive;
        Simulator sim(ckt, opt);
        return sim.tran(TranSpec{1e-8, 4e-6, 0.0});
    };
    const auto fixed = run(false);
    const auto adaptive = run(true);
    EXPECT_GT(fixed.max_of("out"), 4.5);
    EXPECT_GT(adaptive.max_of("out"), 4.5);  // the pulse must survive
    EXPECT_LT(max_trace_deviation(fixed, adaptive, "out"), 0.1);
}

TEST(AdaptiveTran, FixedGridModeIsUntouchedByDefault) {
    Circuit ckt = rc_step(1e3, 1e-9);
    SimOptions opt;
    opt.uic = true;
    Simulator sim(ckt, opt);  // adaptive defaults to off on the raw kernel
    const auto wf = sim.tran(TranSpec{1e-8, 4e-6, 0.0});
    EXPECT_EQ(wf.points(), 401u);
    EXPECT_EQ(sim.stats().grid_points_interpolated, 0u);
    EXPECT_GE(sim.stats().tran_steps, 400u);
}

TEST(AdaptiveTran, VcoGoldenWithinDetectionTolerance) {
    // The paper's 26-T VCO, 400-step run: the adaptive waveform must agree
    // with the fixed grid within the paper's own detection tolerance (2 V
    // amplitude / 0.2 us time on node 11) -- i.e. the comparator that
    // decides fault verdicts cannot tell the two nominal runs apart.
    auto run = [&](bool adaptive) {
        SimOptions opt;
        opt.uic = true;
        opt.adaptive = adaptive;
        Simulator sim(circuits::build_vco(), opt);
        return sim.tran();
    };
    const auto fixed = run(false);
    const auto adaptive = run(true);
    ASSERT_EQ(fixed.points(), adaptive.points());
    anafault::DetectionSpec spec;
    spec.observed = {circuits::kVcoOutput};
    EXPECT_FALSE(anafault::detect_time(fixed, adaptive, spec).has_value());
    EXPECT_FALSE(anafault::detect_time(adaptive, fixed, spec).has_value());
}

TEST(AdaptiveTran, OtaGoldenAgainstFixedGrid) {
    auto run = [&](bool adaptive, SimStats& stats) {
        SimOptions opt;
        opt.adaptive = adaptive;
        Simulator sim(circuits::build_ota(), opt);
        const auto wf = sim.tran();
        stats = sim.stats();
        return wf;
    };
    SimStats sf, sa;
    const auto fixed = run(false, sf);
    const auto adaptive = run(true, sa);
    ASSERT_EQ(fixed.points(), adaptive.points());
    EXPECT_LT(max_trace_deviation(fixed, adaptive, circuits::kOtaOutput),
              0.2);
    // The follower tracks a smooth sine: the LTE controller must find
    // stride headroom somewhere in the run.
    EXPECT_LT(sa.tran_steps, sf.tran_steps);
}

// ---------------------------------------------------------------------------
// Campaign determinism: adaptive on/off and early abort on/off must not
// change verdicts

TEST(AdaptiveCampaign, VcoVerdictsIdenticalWithAndWithoutAdaptive) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);

    anafault::CampaignOptions adaptive = e.config.campaign;
    adaptive.threads = 2;
    ASSERT_TRUE(adaptive.sim.adaptive);  // campaign default
    ASSERT_TRUE(adaptive.early_abort);   // campaign default
    anafault::CampaignOptions fixed = adaptive;
    fixed.sim.adaptive = false;
    anafault::CampaignOptions no_abort = adaptive;
    no_abort.early_abort = false;

    const auto ra = run_campaign(e.sim_circuit, lift_res.faults, adaptive);
    const auto rf = run_campaign(e.sim_circuit, lift_res.faults, fixed);
    const auto rn = run_campaign(e.sim_circuit, lift_res.faults, no_abort);

    ASSERT_EQ(ra.results.size(), rf.results.size());
    EXPECT_GT(ra.detected(), 0u);
    for (std::size_t i = 0; i < ra.results.size(); ++i) {
        SCOPED_TRACE("fault index " + std::to_string(i));
        EXPECT_EQ(ra.results[i].simulated, rf.results[i].simulated);
        ASSERT_EQ(ra.results[i].detect_time.has_value(),
                  rf.results[i].detect_time.has_value());
        if (ra.results[i].detect_time) {
            // Detection instants may shift by the waveform difference the
            // LTE tolerance admits, but must stay within the paper's own
            // time tolerance of each other.
            EXPECT_NEAR(*ra.results[i].detect_time,
                        *rf.results[i].detect_time, 0.2e-6);
        }
        // Early abort only trims the run after its detection instant.
        EXPECT_EQ(ra.results[i].simulated, rn.results[i].simulated);
        EXPECT_EQ(ra.results[i].detect_time, rn.results[i].detect_time);
    }
    EXPECT_EQ(ra.detected(), rf.detected());
    EXPECT_EQ(ra.final_coverage(), rf.final_coverage());
    // The whole point: same verdicts, far fewer companion steps solved.
    EXPECT_LT(ra.batch.steps_integrated, rf.batch.steps_integrated);
    EXPECT_GT(ra.batch.steps_interpolated, 0u);
    EXPECT_EQ(rf.batch.steps_interpolated, 0u);
    EXPECT_EQ(ra.batch.early_aborts, ra.detected());
    EXPECT_GT(ra.batch.steps_saved, 0u);
    EXPECT_EQ(rn.batch.early_aborts, 0u);
    EXPECT_EQ(rn.batch.steps_saved, 0u);
}

// ---------------------------------------------------------------------------
// AC per-point observer + mid-sweep early abort

TEST(AcObserver, StopsSweepAndCountsSkippedPoints) {
    Simulator sim(rc_lowpass(), SimOptions{});
    AcSpec spec;
    spec.fstart = 1e3;
    spec.fstop = 1e8;
    spec.points_per_decade = 10;  // 5 decades -> 51 points
    int seen = 0;
    const auto res = sim.ac(spec, [&](double, const AcResult&) {
        return ++seen < 5;
    });
    EXPECT_EQ(res.points(), 5u);
    EXPECT_EQ(sim.stats().ac_points, 5u);
    EXPECT_EQ(sim.stats().ac_points_saved, 46u);
}

TEST(AcObserver, EmptyObserverSweepsEverything) {
    Simulator sim(rc_lowpass(), SimOptions{});
    AcSpec spec;
    spec.fstart = 1e3;
    spec.fstop = 1e8;
    spec.points_per_decade = 10;
    const auto res = sim.ac(spec, AcPointObserver{});
    EXPECT_EQ(res.points(), 51u);
    EXPECT_EQ(sim.stats().ac_points_saved, 0u);
}

TEST(AcCampaign, EarlyAbortKeepsVerdictsAndSkipsPoints) {
    lift::FaultList fl;
    fl.faults.push_back(cap_short_fault());

    anafault::AcCampaignOptions opt;
    opt.observed = {"out"};
    opt.sweep.fstart = 1e3;
    opt.sweep.fstop = 1e8;
    anafault::AcCampaignOptions full = opt;
    full.early_abort = false;

    const auto r_abort = anafault::run_ac_campaign(rc_lowpass(), fl, opt);
    const auto r_full = anafault::run_ac_campaign(rc_lowpass(), fl, full);

    ASSERT_EQ(r_abort.results.size(), 1u);
    ASSERT_EQ(r_full.results.size(), 1u);
    EXPECT_TRUE(r_abort.results[0].detected);
    EXPECT_TRUE(r_full.results[0].detected);
    ASSERT_TRUE(r_abort.results[0].detect_freq.has_value());
    ASSERT_TRUE(r_full.results[0].detect_freq.has_value());
    // First-violation frequency is identical; only the tail is skipped.
    EXPECT_DOUBLE_EQ(*r_abort.results[0].detect_freq,
                     *r_full.results[0].detect_freq);
    EXPECT_GT(r_abort.results[0].points_saved, 0u);
    EXPECT_GT(r_abort.batch.freq_points_saved, 0u);
    EXPECT_EQ(r_abort.batch.early_aborts, 1u);
    EXPECT_EQ(r_full.batch.freq_points_saved, 0u);
    EXPECT_EQ(r_full.batch.early_aborts, 0u);
}

// ---------------------------------------------------------------------------
// Warm-started DC sweeps and screens

TEST(DcSweep, WarmStartMatchesFreshSolvesAndSavesIterations) {
    const Circuit inv = circuits::build_inverter();
    std::vector<double> levels;
    for (double v = 0.0; v <= 5.0; v += 0.25) levels.push_back(v);

    SimStats stats;
    const auto sweep = dc_sweep(inv, "VIN", levels, SimOptions{}, {}, &stats);
    ASSERT_EQ(sweep.size(), levels.size());

    // Reference: a fresh cold solve per level (the pre-refactor shape).
    for (std::size_t i = 0; i < levels.size(); ++i) {
        ASSERT_TRUE(sweep[i].converged) << levels[i];
        Circuit c = inv;
        c.device("VIN").source = SourceSpec::make_dc(levels[i]);
        Simulator cold(c, SimOptions{});
        const auto ref = cold.dc_op();
        ASSERT_TRUE(ref.converged);
        // Warm and cold paths stop at the same NR tolerance, not at the
        // same bit pattern; agreement to well under a millivolt is the
        // solver's own convergence envelope.
        for (const auto& [node, v] : ref.voltages)
            EXPECT_NEAR(sweep[i].voltages.at(node), v, 1e-3)
                << "level " << levels[i] << " node " << node;
    }
    EXPECT_GT(stats.warm_start_solves, 0u);
    EXPECT_GT(stats.nr_saved_warm, 0u);
}

TEST(DcSweep, ObserverTruncatesTheSweep) {
    const Circuit inv = circuits::build_inverter();
    std::vector<double> levels;
    for (double v = 0.0; v <= 5.0; v += 0.25) levels.push_back(v);
    std::size_t calls = 0;
    const auto sweep = dc_sweep(inv, "VIN", levels, SimOptions{},
                                [&](double, const DcResult&) {
                                    return ++calls < 6;
                                });
    EXPECT_EQ(sweep.size(), 6u);  // the rejected level is still returned
    EXPECT_EQ(calls, 6u);
}

TEST(DcScreen, WarmStartKeepsVerdicts) {
    // Pulsed divider from the batch tests: faults with clear DC signatures.
    Circuit c;
    c.add_vsource("V1", "in", "0", SourceSpec::make_dc(5.0));
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_resistor("R2", "out", "0", 1e3);

    lift::FaultList fl;
    fl.faults.push_back(cap_short_fault());  // out-0 short: out collapses
    {
        lift::Fault f;
        f.id = 2;
        f.kind = lift::FaultKind::LineOpen;
        f.mechanism = "cut";
        f.probability = 1e-3;
        f.net = "out";
        f.group_b = {lift::TerminalRef{"R2", 0}};
        fl.faults.push_back(f);  // R2 open: out rises toward in
    }

    anafault::DcScreenOptions warm;
    warm.observed = {"out"};
    warm.v_tol = 1.0;
    anafault::DcScreenOptions cold = warm;
    cold.warm_start = false;

    const auto rw = anafault::run_dc_screen(c, fl, warm);
    const auto rc = anafault::run_dc_screen(c, fl, cold);
    ASSERT_EQ(rw.results.size(), rc.results.size());
    for (std::size_t i = 0; i < rw.results.size(); ++i) {
        EXPECT_EQ(rw.results[i].detected, rc.results[i].detected) << i;
        EXPECT_EQ(rw.results[i].converged, rc.results[i].converged) << i;
        EXPECT_NEAR(rw.results[i].max_deviation, rc.results[i].max_deviation,
                    1e-6)
            << i;
    }
    EXPECT_GT(rw.batch.warm_start_solves, 0u);
    EXPECT_EQ(rc.batch.warm_start_solves, 0u);
}
