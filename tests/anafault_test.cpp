// AnaFAULT tests: fault injection (both hard-fault models), the detection
// comparator, parametric faults, and a small end-to-end campaign.

#include "anafault/campaign.h"
#include "anafault/comparator.h"
#include "anafault/fault_models.h"
#include "anafault/report.h"
#include "circuits/vco.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace catlift;
using namespace catlift::anafault;
using namespace catlift::netlist;

namespace {

Circuit rc_fixture() {
    Circuit c;
    c.title = "rc";
    c.add_vsource("V1", "in", "0",
                  SourceSpec::make_pulse(0, 5, 0, 1e-9, 1e-9, 1, 2));
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_capacitor("C1", "out", "0", 1e-9);
    c.tran = TranSpec{1e-8, 4e-6, 0.0};
    return c;
}

spice::Waveforms ramp_wave(const std::string& node, double slope,
                           double tstop = 4e-6, double dt = 1e-8,
                           double offset = 0.0) {
    spice::Waveforms wf;
    wf.add_trace(node);
    for (double t = 0; t <= tstop + dt / 2; t += dt)
        wf.append(t, {offset + slope * t});
    return wf;
}

} // namespace

// ---------------------------------------------------------------------------
// Injection

TEST(Inject, ShortResistorModel) {
    Circuit c = rc_fixture();
    inject_short(c, "in", "out");
    const Device& d = c.device("FLT1");
    EXPECT_EQ(d.kind, DeviceKind::Resistor);
    EXPECT_DOUBLE_EQ(d.value, 0.01);  // paper: 0.01 Ohm
}

TEST(Inject, ShortSourceModelAddsBranch) {
    Circuit c1 = rc_fixture();
    Circuit c2 = rc_fixture();
    InjectionOptions src;
    src.model = HardFaultModel::Source;
    inject_short(c1, "in", "out");        // resistor model
    inject_short(c2, "in", "out", src);   // source model
    spice::Simulator s1(c1), s2(c2);
    // The ideal 0V source costs one extra MNA unknown -- the mechanism
    // behind the paper's 43% runtime observation.
    EXPECT_EQ(s2.unknowns(), s1.unknowns() + 1);
}

TEST(Inject, SourceShortClosingAVoltageSourceLoopRejected) {
    // V1 ties "in" to ground; V2 ties "a" to "in".  An ideal 0 V short
    // between any two of {a, in, 0} closes a loop of voltage sources.
    Circuit c = rc_fixture();
    c.add_vsource("V2", "a", "in", SourceSpec::make_dc(1.0));
    c.add_resistor("R2", "a", "out", 1e3);
    InjectionOptions src;
    src.model = HardFaultModel::Source;
    const std::vector<std::pair<std::string, std::string>> loops = {
        {"in", "0"}, {"a", "gnd"}, {"IN", "a"}};
    for (const auto& [x, y] : loops) {
        Circuit faulty = c;
        try {
            inject_short(faulty, x, y, src);
            ADD_FAILURE() << x << "-" << y << " was injected";
        } catch (const Error& e) {
            const std::string msg = e.what();
            std::ostringstream named;
            named << "nets " << x << " and " << y;
            EXPECT_NE(msg.find(named.str()), std::string::npos) << msg;
            EXPECT_NE(msg.find("loop of ideal voltage sources"),
                      std::string::npos)
                << msg;
        }
        EXPECT_EQ(faulty.devices.size(), c.devices.size());
    }
    // Not tied by sources: injected as before.
    Circuit ok = c;
    inject_short(ok, "out", "0", src);
    EXPECT_EQ(ok.device("FLT1").kind, DeviceKind::VSource);
    // The resistor model never makes a loop.
    Circuit r = c;
    inject_short(r, "in", "0");
    EXPECT_EQ(r.device("FLT1").kind, DeviceKind::Resistor);
}

TEST(Inject, ShortSameNetRejected) {
    Circuit c = rc_fixture();
    EXPECT_THROW(inject_short(c, "in", "in"), Error);
    EXPECT_THROW(inject_short(c, "gnd", "0"), Error);  // aliases
}

TEST(Inject, TerminalOpenRewiresDevice) {
    Circuit c = rc_fixture();
    inject_terminal_open(c, {"C1", 0});
    const Device& cap = c.device("C1");
    EXPECT_NE(cap.nodes[0], "out");
    const Device& open_el = c.device("FLT1");
    EXPECT_EQ(open_el.kind, DeviceKind::Resistor);
    EXPECT_DOUBLE_EQ(open_el.value, 100e6);  // paper: 100 MOhm
    // The open element ties old and new node.
    EXPECT_TRUE((open_el.nodes[0] == "out" && open_el.nodes[1] == cap.nodes[0]) ||
                (open_el.nodes[1] == "out" && open_el.nodes[0] == cap.nodes[0]));
}

TEST(Inject, OpenSourceModelUsesCurrentSource) {
    Circuit c = rc_fixture();
    InjectionOptions src;
    src.model = HardFaultModel::Source;
    inject_terminal_open(c, {"C1", 0}, src);
    EXPECT_EQ(c.device("FLT1").kind, DeviceKind::ISource);
    EXPECT_DOUBLE_EQ(c.device("FLT1").source.dc, 0.0);
}

TEST(Inject, SplitNodeMovesGroup) {
    Circuit c = circuits::build_vco();
    // Split node 8 (NMOS mirror gate): move M7's gate away.
    const std::string nn = inject_split(c, "8", {{"M7", 1}});
    EXPECT_EQ(c.device("M7").gate(), nn);
    EXPECT_EQ(c.device("M6").gate(), "8");  // untouched side
}

TEST(Inject, SplitValidatesMembership) {
    Circuit c = circuits::build_vco();
    // M7's gate is on net 8, not on net 5.
    EXPECT_THROW(inject_split(c, "5", {{"M7", 1}}), Error);
    EXPECT_THROW(inject_split(c, "8", {}), Error);
}

TEST(Inject, DispatchCoversAllKinds) {
    using lift::Fault;
    using lift::FaultKind;
    Circuit base = circuits::build_vco();
    Fault bridge;
    bridge.kind = FaultKind::GlobalShort;
    bridge.net_a = "1";
    bridge.net_b = "3";
    EXPECT_EQ(inject(base, bridge).devices.size(), base.devices.size() + 1);

    Fault stuck;
    stuck.kind = FaultKind::StuckOpen;
    stuck.victim = {"M7", 0};
    Circuit c2 = inject(base, stuck);
    EXPECT_NE(c2.device("M7").drain(), base.device("M7").drain());

    Fault split;
    split.kind = FaultKind::SplitNode;
    split.net = "8";
    split.group_b = {{"M7", 1}, {"M6", 0}};
    Circuit c3 = inject(base, split);
    EXPECT_EQ(c3.device("M7").gate(), c3.device("M6").drain());
    EXPECT_NE(c3.device("M7").gate(), "8");
}

// ---------------------------------------------------------------------------
// Parametric faults

TEST(Parametric, ScalesValues) {
    Circuit c = rc_fixture();
    Circuit f = inject_parametric(c, {"R1", "value", 2.0});
    EXPECT_DOUBLE_EQ(f.device("R1").value, 2e3);
    Circuit m = circuits::build_vco();
    Circuit fm = inject_parametric(m, {"M7", "w", 0.5});
    EXPECT_DOUBLE_EQ(fm.device("M7").w, 20e-6);
}

TEST(Parametric, RejectsBadTargets) {
    Circuit c = rc_fixture();
    EXPECT_THROW(inject_parametric(c, {"R1", "w", 2.0}), Error);
    EXPECT_THROW(inject_parametric(c, {"V1", "value", 2.0}), Error);
    EXPECT_THROW(inject_parametric(c, {"R1", "value", -1.0}), Error);
    EXPECT_THROW(inject_parametric(c, {"nosuch", "value", 2.0}), Error);
}

TEST(Parametric, MonteCarloDeterministicAndPositive) {
    Circuit c = circuits::build_vco();
    auto a = monte_carlo_faults(c, 50, 0.2, 42);
    auto b = monte_carlo_faults(c, 50, 0.2, 42);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].device, b[i].device);
        EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor);
        EXPECT_GT(a[i].factor, 0.0);
    }
    // A different seed gives a different draw.
    auto c2 = monte_carlo_faults(c, 50, 0.2, 43);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= a[i].factor != c2[i].factor;
    EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Comparator

TEST(Comparator, IdenticalWaveformsNeverDetect) {
    auto w = ramp_wave("11", 1e6);
    DetectionSpec spec;
    EXPECT_FALSE(detect_time(w, w, spec).has_value());
}

TEST(Comparator, ConstantOffsetDetectsAfterTimeTolerance) {
    auto nom = ramp_wave("11", 0.0);
    auto bad = ramp_wave("11", 0.0, 4e-6, 1e-8, 3.0);  // 3 V offset
    DetectionSpec spec;  // 2 V, 0.2 us
    auto t = detect_time(nom, bad, spec);
    ASSERT_TRUE(t.has_value());
    // Mismatch from t=0; accumulated time crosses 0.2us just after 0.2us.
    EXPECT_NEAR(*t, 0.2e-6, 0.02e-6);
}

TEST(Comparator, SmallOffsetTolerated) {
    auto nom = ramp_wave("11", 0.0);
    auto ok = ramp_wave("11", 0.0, 4e-6, 1e-8, 1.5);  // below 2 V tolerance
    EXPECT_FALSE(detect_time(nom, ok, DetectionSpec{}).has_value());
}

TEST(Comparator, BriefGlitchBelowTimeToleranceIgnored) {
    auto nom = ramp_wave("11", 0.0);
    spice::Waveforms glitchy;
    glitchy.add_trace("11");
    for (double t = 0; t <= 4e-6 + 5e-9; t += 1e-8) {
        // 0.1 us burst of 5 V at t ~ 1 us: shorter than the 0.2 us budget.
        const double v = (t >= 1e-6 && t < 1.1e-6) ? 5.0 : 0.0;
        glitchy.append(t, {v});
    }
    EXPECT_FALSE(detect_time(nom, glitchy, DetectionSpec{}).has_value());
}

TEST(Comparator, RepeatedGlitchesAccumulate) {
    auto nom = ramp_wave("11", 0.0);
    spice::Waveforms glitchy;
    glitchy.add_trace("11");
    for (double t = 0; t <= 4e-6 + 5e-9; t += 1e-8) {
        // 0.1 us burst every 1 us: the 0.2 us budget is exceeded by the
        // last sample of the second burst (t ~ 1.1 us).
        const double phase = std::fmod(t, 1e-6);
        glitchy.append(t, {phase < 0.1e-6 ? 5.0 : 0.0});
    }
    auto t = detect_time(nom, glitchy, DetectionSpec{});
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 1.1e-6, 0.1e-6);
}

TEST(Comparator, EarliestNodeWins) {
    spice::Waveforms nom;
    nom.add_trace("a");
    nom.add_trace("b");
    spice::Waveforms bad;
    bad.add_trace("a");
    bad.add_trace("b");
    for (double t = 0; t <= 4e-6 + 5e-9; t += 1e-8) {
        nom.append(t, {0.0, 0.0});
        // "b" deviates from t=0, "a" only from 2 us.
        bad.append(t, {t > 2e-6 ? 5.0 : 0.0, 5.0});
    }
    DetectionSpec spec;
    spec.observed = {"a", "b"};
    auto t = detect_time(nom, bad, spec);
    ASSERT_TRUE(t.has_value());
    EXPECT_LT(*t, 0.3e-6);
}

TEST(Comparator, MissingNodeRejected) {
    auto nom = ramp_wave("11", 0.0);
    auto bad = ramp_wave("12", 0.0);
    DetectionSpec spec;
    EXPECT_THROW(detect_time_on(nom, bad, "11", spec), Error);
}

TEST(Comparator, SupplyCurrentObservationCatchesMaskedShorts) {
    // A VDD-GND bridge keeps every node voltage nominal (ideal source)
    // but draws huge current: only the IDDQ observation sees it.
    Circuit nom_c = circuits::build_vco();
    Circuit bad_c = circuits::build_vco();
    inject_short(bad_c, "1", "0");
    spice::SimOptions so;
    so.uic = true;
    spice::Simulator sn(nom_c, so), sb(bad_c, so);
    auto nom = sn.tran();
    auto bad = sb.tran();

    DetectionSpec volt_only;
    volt_only.observed = {circuits::kVcoOutput};
    // Voltage-only: at best a late numerical artefact; at worst nothing.
    auto tv = detect_time(nom, bad, volt_only);
    DetectionSpec with_iddq = volt_only;
    with_iddq.observed_supplies = {"VDD"};
    auto ti = detect_time(nom, bad, with_iddq);
    ASSERT_TRUE(ti.has_value());
    EXPECT_LT(*ti, 0.5e-6);  // caught almost immediately
    if (tv) {
        EXPECT_LT(*ti, *tv);
    }
}

// ---------------------------------------------------------------------------
// Campaign on a small fixture

TEST(Campaign, RcShortAndOpenDetected) {
    Circuit c = rc_fixture();
    lift::FaultList fl;
    fl.circuit = "rc";
    lift::Fault shrt;
    shrt.id = 1;
    shrt.kind = lift::FaultKind::LocalShort;
    shrt.mechanism = "m";
    shrt.probability = 1e-7;
    shrt.net_a = "out";
    shrt.net_b = "0";
    fl.faults.push_back(shrt);
    lift::Fault open;
    open.id = 2;
    open.kind = lift::FaultKind::LineOpen;
    open.mechanism = "m";
    open.probability = 1e-8;
    open.net = "out";
    open.group_b = {{"C1", 0}};
    fl.faults.push_back(open);

    CampaignOptions opt;
    opt.detection.observed = {"out"};
    auto res = run_campaign(c, fl, opt);
    ASSERT_EQ(res.results.size(), 2u);
    EXPECT_EQ(res.failed(), 0u);
    // Short to ground: output stuck at 0 vs charging to 5 -> detected.
    EXPECT_TRUE(res.results[0].detect_time.has_value());
    // Capacitor open: output follows the source immediately instead of
    // the RC ramp; the deviation lives only during the charging transient
    // (~3 tau = 3 us) -- still more than 0.2 us of mismatch.
    EXPECT_TRUE(res.results[1].detect_time.has_value());
    EXPECT_DOUBLE_EQ(res.final_coverage(), 100.0);
}

TEST(Campaign, CoverageCurveMonotonic) {
    Circuit c = rc_fixture();
    lift::FaultList fl;
    for (int i = 0; i < 3; ++i) {
        lift::Fault f;
        f.id = i + 1;
        f.kind = lift::FaultKind::LocalShort;
        f.mechanism = "m";
        f.probability = 1e-8;
        // Constructed, not assigned from a char pointer: GCC 12 -Wrestrict
        // noise.
        f.net_a = std::string(i == 0 ? "out" : "in");
        f.net_b = std::string("0");
        if (i == 2) {
            f.net_a = std::string("in");
            f.net_b = std::string("out");
        }
        fl.faults.push_back(f);
    }
    CampaignOptions opt;
    opt.detection.observed = {"out"};
    auto res = run_campaign(c, fl, opt);
    auto curve = res.coverage_curve(50);
    ASSERT_EQ(curve.size(), 51u);
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
    EXPECT_NEAR(curve.back().first, 4e-6, 1e-12);
}

TEST(Campaign, ParametricCampaignRuns) {
    Circuit c = rc_fixture();
    std::vector<ParametricFault> faults = {
        {"R1", "value", 10.0},   // tau x10: grossly out of tolerance
        {"R1", "value", 1.01},   // 1%: well within tolerance
    };
    CampaignOptions opt;
    opt.detection.observed = {"out"};
    auto res = run_parametric_campaign(c, faults, opt);
    ASSERT_EQ(res.results.size(), 2u);
    EXPECT_TRUE(res.results[0].detect_time.has_value());
    EXPECT_FALSE(res.results[1].detect_time.has_value());
}

TEST(Campaign, RequiresTranSpec) {
    Circuit c = rc_fixture();
    c.tran.reset();
    lift::FaultList fl;
    EXPECT_THROW(run_campaign(c, fl, CampaignOptions{}), Error);
    CampaignOptions opt;
    opt.tran = TranSpec{1e-8, 1e-6, 0.0};
    EXPECT_NO_THROW(run_campaign(c, fl, opt));
}

TEST(Report, TableAndSummaryContainKeyFacts) {
    Circuit c = rc_fixture();
    lift::FaultList fl;
    lift::Fault f;
    f.id = 1;
    f.kind = lift::FaultKind::LocalShort;
    f.mechanism = "metal1_short";
    f.probability = 3e-8;
    f.net_a = "out";
    f.net_b = "0";
    fl.faults.push_back(f);
    CampaignOptions opt;
    opt.detection.observed = {"out"};
    auto res = run_campaign(c, fl, opt);

    const std::string table = campaign_table(res);
    EXPECT_NE(table.find("metal1_short"), std::string::npos);
    EXPECT_NE(table.find("yes"), std::string::npos);
    const std::string summary = campaign_summary(res);
    EXPECT_NE(summary.find("fault coverage: 100.0%"), std::string::npos);
    const std::string plot = coverage_plot_ascii(res);
    EXPECT_NE(plot.find('*'), std::string::npos);
    const std::string csv = coverage_csv(res, 10);
    EXPECT_NE(csv.find("time_s,time_pct,coverage_pct"), std::string::npos);
}
