// DC operating-point tests: linear networks with exact solutions, nonlinear
// MOS circuits, convergence fallbacks.

#include "batch/result_store.h"
#include "circuits/ota.h"
#include "circuits/vco.h"
#include "netlist/parser.h"
#include "spice/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>

using namespace catlift;
using namespace catlift::netlist;
using namespace catlift::spice;

namespace {

MosModel nmos_model() {
    MosModel m;
    m.name = "nm";
    m.is_nmos = true;
    m.vto = 0.8;
    m.kp = 50e-6;
    m.lambda = 0.02;
    return m;
}

MosModel pmos_model() {
    MosModel m;
    m.name = "pm";
    m.is_nmos = false;
    m.vto = -0.8;
    m.kp = 20e-6;
    m.lambda = 0.02;
    return m;
}

} // namespace

TEST(DcOp, VoltageDivider) {
    Circuit c;
    c.add_vsource("V1", "in", "0", SourceSpec::make_dc(10.0));
    c.add_resistor("R1", "in", "mid", 1e3);
    c.add_resistor("R2", "mid", "0", 3e3);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.voltages.at("mid"), 7.5, 1e-6);
    EXPECT_NEAR(r.voltages.at("in"), 10.0, 1e-9);
}

TEST(DcOp, CurrentSourceIntoResistor) {
    Circuit c;
    c.add_isource("I1", "0", "x", SourceSpec::make_dc(1e-3));
    c.add_resistor("R1", "x", "0", 2e3);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    // 1 mA pushed into x through 2k -> 2 V.
    EXPECT_NEAR(r.voltages.at("x"), 2.0, 1e-6);
}

TEST(DcOp, SeriesVsourcesAndPolarity) {
    Circuit c;
    c.add_vsource("V1", "a", "0", SourceSpec::make_dc(3.0));
    c.add_vsource("V2", "b", "a", SourceSpec::make_dc(2.0));
    c.add_resistor("R1", "b", "0", 1e3);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.voltages.at("b"), 5.0, 1e-9);
}

TEST(DcOp, CapacitorIsOpenInDc) {
    Circuit c;
    c.add_vsource("V1", "in", "0", SourceSpec::make_dc(5.0));
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_capacitor("C1", "out", "0", 1e-9);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.voltages.at("out"), 5.0, 1e-3);  // gmin leak only
}

TEST(DcOp, FloatingNodeHeldByGmin) {
    Circuit c;
    c.add_vsource("V1", "a", "0", SourceSpec::make_dc(5.0));
    c.add_resistor("R1", "a", "b", 1e3);
    // Node "float" touches only a capacitor: gmin must keep it solvable.
    c.add_resistor("R2", "b", "0", 1e3);
    c.add_capacitor("C1", "float", "b", 1e-12);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(r.voltages.count("float"));
}

TEST(DcOp, DiodeConnectedNmos) {
    // I = 10uA into a diode-connected NMOS: vgs ~ vt + sqrt(2 I / beta).
    Circuit c;
    c.add_model(nmos_model());
    c.add_isource("I1", "0", "d", SourceSpec::make_dc(10e-6));
    c.add_mosfet("M1", "d", "d", "0", "0", "nm", 10e-6, 2e-6);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    const double beta = 50e-6 * 5.0;
    const double vgs_pred = 0.8 + std::sqrt(2 * 10e-6 / beta);
    EXPECT_NEAR(r.voltages.at("d"), vgs_pred, 0.02);  // lambda shifts slightly
}

TEST(DcOp, CmosInverterBalancedPoint) {
    Circuit c;
    c.add_model(nmos_model());
    c.add_model(pmos_model());
    c.add_vsource("Vdd", "vdd", "0", SourceSpec::make_dc(5.0));
    c.add_vsource("Vin", "in", "0", SourceSpec::make_dc(0.0));
    c.add_mosfet("MN", "out", "in", "0", "0", "nm", 10e-6, 2e-6);
    c.add_mosfet("MP", "out", "in", "vdd", "vdd", "pm", 25e-6, 2e-6);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    // Input low -> output high.
    EXPECT_GT(r.voltages.at("out"), 4.9);
}

TEST(DcOp, CmosInverterTransferMonotonic) {
    // Sweep the input; the output must fall monotonically.
    double prev_out = 6.0;
    for (double vin = 0.0; vin <= 5.0; vin += 0.5) {
        Circuit c;
        c.add_model(nmos_model());
        c.add_model(pmos_model());
        c.add_vsource("Vdd", "vdd", "0", SourceSpec::make_dc(5.0));
        c.add_vsource("Vin", "in", "0", SourceSpec::make_dc(vin));
        c.add_mosfet("MN", "out", "in", "0", "0", "nm", 10e-6, 2e-6);
        c.add_mosfet("MP", "out", "in", "vdd", "vdd", "pm", 25e-6, 2e-6);
        Simulator sim(c);
        auto r = sim.dc_op();
        ASSERT_TRUE(r.converged) << "vin=" << vin;
        const double out = r.voltages.at("out");
        EXPECT_LE(out, prev_out + 1e-6) << "vin=" << vin;
        prev_out = out;
    }
}

TEST(DcOp, NmosCurrentMirrorRatio) {
    Circuit c;
    c.add_model(nmos_model());
    c.add_vsource("Vdd", "vdd", "0", SourceSpec::make_dc(5.0));
    c.add_isource("Iref", "vdd", "g", SourceSpec::make_dc(20e-6));
    c.add_mosfet("M1", "g", "g", "0", "0", "nm", 10e-6, 2e-6);
    c.add_mosfet("M2", "out", "g", "0", "0", "nm", 20e-6, 2e-6);  // 2x
    c.add_resistor("RL", "vdd", "out", 10e3);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    // Output current ~ 40uA -> drop 0.4V across 10k.
    EXPECT_NEAR(r.voltages.at("out"), 5.0 - 0.4, 0.1);
}

TEST(DcOp, StatsExposeMatrixSize) {
    Circuit c;
    c.add_vsource("V1", "a", "0", SourceSpec::make_dc(1.0));
    c.add_resistor("R1", "a", "b", 1e3);
    c.add_resistor("R2", "b", "0", 1e3);
    Simulator sim(c);
    // 2 nodes + 1 branch.
    EXPECT_EQ(sim.unknowns(), 3u);
    EXPECT_EQ(sim.stats().matrix_size, 3u);
}

TEST(DcOp, ParsedDeckEndToEnd) {
    const char* deck =
        "divider\n"
        "V1 in 0 DC 9\n"
        "R1 in out 2k\n"
        "R2 out 0 1k\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    Simulator sim(c);
    auto r = sim.dc_op();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.voltages.at("out"), 3.0, 1e-6);
}

// Cross-commit pins of the cold strategy ladder: which strategy an
// operating point converges with, after how many NR iterations, and an
// FNV-1a digest of its "%a" node voltages.  A refactor of the ladder, its
// damping levels or the Newton loop that moves any of these moves every
// operating point downstream (nominals, DC screens, transient starts).
// Update a pin only with a change that means to.
namespace {

void expect_dc_pin(const netlist::Circuit& c, const char* strategy,
                   int iterations, std::uint64_t digest) {
    Simulator sim(c);
    const DcResult r = sim.dc_op();
    std::string all;
    for (const auto& [node, v] : r.voltages) {  // std::map: sorted by name
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s %a\n", node.c_str(), v);
        all += buf;
    }
    EXPECT_EQ(r.converged, *strategy != '\0') << c.title;
    EXPECT_EQ(r.strategy, strategy) << c.title;
    EXPECT_EQ(r.iterations, iterations) << c.title;
    EXPECT_EQ(batch::fnv1a(all), digest) << c.title;
}

} // namespace

TEST(DcStrategyPins, Vco) {
    expect_dc_pin(circuits::build_vco(), "nr", 4, 0x1757868e03ab2b64ull);
}

TEST(DcStrategyPins, Ota) {
    expect_dc_pin(circuits::build_ota(), "nr", 4, 0x6bf45907d7b19561ull);
}

TEST(DcStrategyPins, SchmittFixture) {
    expect_dc_pin(circuits::build_schmitt_fixture(), "nr", 13,
                  0x5603b7bb4e3e28d3ull);
}

TEST(DcStrategyPins, InverterChains) {
    // 64 stages need source stepping: plain Newton and gmin stepping fail.
    expect_dc_pin(circuits::build_inverter_chain(16), "gmin", 40,
                  0x36dd9280938ae448ull);
    expect_dc_pin(circuits::build_inverter_chain(64), "source", 121,
                  0xecc0fe178858dfb5ull);
    expect_dc_pin(circuits::build_inverter_chain(144), "source", 201,
                  0xdcdfd1a5def02363ull);
    // 160 stages exhaust every strategy at every damping level: the pin
    // is the iteration count of the whole ladder.
    expect_dc_pin(circuits::build_inverter_chain(160), "", 550,
                  batch::kFnvOffsetBasis);
}
