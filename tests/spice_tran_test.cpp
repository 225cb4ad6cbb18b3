// Transient analysis tests: RC charging against the closed form, method
// comparison, a simulator reused after a failed run, ring oscillator,
// charge conservation.

#include "circuits/vco.h"
#include "netlist/parser.h"
#include "robust/failpoint.h"
#include "spice/engine.h"
#include "spice/measure.h"

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

void add_inverter(Circuit& c, const std::string& tag, const std::string& in,
                  const std::string& out) {
    c.add_mosfet("MP" + tag, out, in, "vdd", "vdd", "pm", 20e-6, 2e-6);
    c.add_mosfet("MN" + tag, out, in, "0", "0", "nm", 10e-6, 2e-6);
}

void add_models(Circuit& c) {
    MosModel n;
    n.name = "nm";
    n.is_nmos = true;
    n.vto = 0.8;
    n.kp = 50e-6;
    n.lambda = 0.02;
    c.add_model(n);
    MosModel p;
    p.name = "pm";
    p.is_nmos = false;
    p.vto = -0.8;
    p.kp = 20e-6;
    p.lambda = 0.02;
    c.add_model(p);
}

} // namespace

TEST(Tran, RcChargingMatchesClosedForm) {
    // tau = 1k * 1n = 1us; simulate 5us.
    Circuit ckt = rc_step(1e3, 1e-9);
    SimOptions opt;
    opt.uic = true;
    Simulator sim(ckt, opt);
    TranSpec ts{1e-8, 5e-6, 0.0};
    auto wf = sim.tran(ts);
    for (double t : {0.5e-6, 1e-6, 2e-6, 4e-6}) {
        const double expect = 5.0 * (1.0 - std::exp(-t / 1e-6));
        EXPECT_NEAR(wf.at("out", t), expect, 0.03) << "t=" << t;
    }
}

TEST(Tran, BackwardEulerAlsoConverges) {
    Circuit ckt = rc_step(1e3, 1e-9);
    SimOptions opt;
    opt.uic = true;
    opt.method = Method::BackwardEuler;
    Simulator sim(ckt, opt);
    auto wf = sim.tran(TranSpec{1e-8, 3e-6, 0.0});
    const double expect = 5.0 * (1.0 - std::exp(-3.0));
    EXPECT_NEAR(wf.at("out", 3e-6), expect, 0.05);
}

TEST(Tran, TrapezoidalBeatsBackwardEulerOnAccuracy) {
    // With a coarse step, TRAP (O(h^2)) must land closer to the closed form
    // than BE (O(h)).
    const double t_obs = 1e-6;
    const double expect = 5.0 * (1.0 - std::exp(-1.0));
    auto run = [&](Method m) {
        Circuit ckt = rc_step(1e3, 1e-9);
        SimOptions opt;
        opt.uic = true;
        opt.method = m;
        Simulator sim(ckt, opt);
        auto wf = sim.tran(TranSpec{1e-7, 2e-6, 0.0});  // 10 pts per tau
        return std::fabs(wf.at("out", t_obs) - expect);
    };
    EXPECT_LT(run(Method::Trapezoidal), run(Method::BackwardEuler));
}

TEST(Tran, FailedBootstrapLeavesTheMethodAlone) {
    // A trapezoidal run integrates its first sub-step with backward Euler.
    // An exception out of that sub-step must not leave the simulator
    // integrating with the bootstrap method: the next run of the same
    // simulator is bit-identical to a fresh trapezoidal one.
    const Circuit chain = circuits::build_inverter_chain(4);
    SimOptions opt;
    opt.uic = true;  // the first Newton solve is the bootstrap sub-step
    ASSERT_EQ(opt.method, Method::Trapezoidal);
    Simulator reused(chain, opt);
    robust::arm("kernel.newton=error@1+1");
    EXPECT_THROW(reused.tran(), catlift::Error);
    robust::disarm_all();

    const Waveforms again = reused.tran();
    const Waveforms fresh = Simulator(chain, opt).tran();
    ASSERT_EQ(again.points(), fresh.points());
    EXPECT_EQ(again.time(), fresh.time());
    for (const std::string& node : fresh.trace_names())
        EXPECT_EQ(again.trace(node), fresh.trace(node)) << node;
}

TEST(Tran, CapacitorInitialCondition) {
    Circuit ckt;
    ckt.add_resistor("R1", "out", "0", 1e3);
    ckt.add_capacitor("C1", "out", "0", 1e-9, /*ic=*/3.0);
    SimOptions opt;
    opt.uic = true;
    Simulator sim(ckt, opt);
    auto wf = sim.tran(TranSpec{1e-8, 2e-6, 0.0});
    // Discharge from 3V with tau=1us.
    EXPECT_NEAR(wf.at("out", 1e-6), 3.0 * std::exp(-1.0), 0.05);
}

TEST(Tran, SinSourceReproduced) {
    Circuit ckt;
    SourceSpec s;
    s.kind = SourceSpec::Kind::Sin;
    s.vo = 0;
    s.va = 2;
    s.freq = 1e6;
    ckt.add_vsource("V1", "a", "0", s);
    ckt.add_resistor("R1", "a", "0", 1e3);
    Simulator sim(ckt);
    auto wf = sim.tran(TranSpec{1e-8, 2e-6, 0.0});
    EXPECT_NEAR(wf.at("a", 0.25e-6), 2.0, 1e-3);
    EXPECT_NEAR(wf.at("a", 0.75e-6), -2.0, 1e-3);
}

TEST(Tran, InverterSwitchesWithPulse) {
    Circuit c;
    add_models(c);
    c.add_vsource("Vdd", "vdd", "0", SourceSpec::make_dc(5));
    c.add_vsource("Vin", "in", "0",
                  SourceSpec::make_pulse(0, 5, 100e-9, 10e-9, 10e-9, 400e-9,
                                         1e-6));
    add_inverter(c, "1", "in", "out");
    c.add_capacitor("CL", "out", "0", 50e-15);
    Simulator sim(c);
    auto wf = sim.tran(TranSpec{2e-9, 1e-6, 0.0});
    EXPECT_GT(wf.at("out", 50e-9), 4.5);   // input low -> out high
    EXPECT_LT(wf.at("out", 300e-9), 0.5);  // input high -> out low
    EXPECT_GT(wf.at("out", 700e-9), 4.5);  // input low again
}

TEST(Tran, RingOscillatorOscillates) {
    // 3-stage ring: the canonical regenerative-transient smoke test.
    Circuit c;
    add_models(c);
    c.add_vsource("Vdd", "vdd", "0",
                  SourceSpec::make_pulse(0, 5, 0, 20e-9, 20e-9, 1, 2));
    add_inverter(c, "1", "n1", "n2");
    add_inverter(c, "2", "n2", "n3");
    add_inverter(c, "3", "n3", "n1");
    c.add_capacitor("C1", "n1", "0", 20e-15);
    c.add_capacitor("C2", "n2", "0", 20e-15);
    c.add_capacitor("C3", "n3", "0", 20e-15);
    SimOptions opt;
    opt.uic = true;
    Simulator sim(c, opt);
    auto wf = sim.tran(TranSpec{1e-9, 2e-6, 0.0});
    // Must show multiple rail-to-rail transitions in the back half.
    auto edges = crossings(wf, "n1", 2.5, +1);
    int late_edges = 0;
    for (double t : edges)
        if (t > 1e-6) ++late_edges;
    EXPECT_GE(late_edges, 3) << "ring oscillator failed to oscillate";
    EXPECT_GT(swing(wf, "n1", 1e-6, 2e-6), 4.0);
}

TEST(Tran, FixedGridPointCount) {
    Circuit ckt = rc_step(1e3, 1e-9);
    SimOptions opt;
    opt.uic = true;
    Simulator sim(ckt, opt);
    // The paper's experiment: 400-step transient over 4us.
    auto wf = sim.tran(TranSpec{1e-8, 4e-6, 0.0});
    EXPECT_EQ(wf.points(), 401u);  // t=0 plus 400 steps
    EXPECT_DOUBLE_EQ(wf.time().front(), 0.0);
    EXPECT_NEAR(wf.time().back(), 4e-6, 1e-15);
}

TEST(Tran, OpenFaultNodeStaysFinite) {
    // A 100 MOhm "open" (the paper's resistor model) leaves a nearly
    // floating node: cmin+gmin must keep everything finite.
    Circuit ckt;
    ckt.add_vsource("V1", "in", "0", SourceSpec::make_dc(5));
    ckt.add_resistor("Ropen", "in", "out", 100e6);
    ckt.add_capacitor("C1", "out", "0", 1e-12);
    Simulator sim(ckt);
    auto wf = sim.tran(TranSpec{1e-8, 1e-6, 0.0});
    for (double v : wf.trace("out")) EXPECT_TRUE(std::isfinite(v));
}

TEST(Tran, RequiresTranCard) {
    Circuit ckt = rc_step(1e3, 1e-9);
    Simulator sim(ckt);
    EXPECT_THROW(sim.tran(), catlift::Error);
    ckt.tran = TranSpec{1e-8, 1e-6, 0.0};
    Simulator sim2(ckt);
    EXPECT_NO_THROW(sim2.tran());
}

TEST(Tran, BadSpecRejected) {
    Circuit ckt = rc_step(1e3, 1e-9);
    Simulator sim(ckt);
    EXPECT_THROW(sim.tran(TranSpec{0.0, 1e-6, 0.0}), catlift::Error);
    EXPECT_THROW(sim.tran(TranSpec{1e-8, 0.0, 0.0}), catlift::Error);
}
