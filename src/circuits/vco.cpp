#include "circuits/vco.h"

namespace catlift::circuits {

using netlist::Circuit;
using netlist::MosModel;
using netlist::SourceSpec;

MosModel standard_nmos() {
    MosModel m;
    m.name = "nm";
    m.is_nmos = true;
    m.vto = 0.8;
    m.kp = 50e-6;
    m.lambda = 0.02;
    m.tox = 20e-9;
    m.cgso = 0.3e-9;
    m.cgdo = 0.3e-9;
    return m;
}

MosModel standard_pmos() {
    MosModel m = standard_nmos();
    m.name = "pm";
    m.is_nmos = false;
    m.vto = -0.8;
    m.kp = 20e-6;
    return m;
}

Circuit build_vco(const VcoOptions& opt) {
    Circuit c;
    c.title = "vco 26T single-poly double-metal cmos";
    c.add_model(standard_nmos());
    c.add_model(standard_pmos());

    constexpr double L = 2e-6;
    auto nmos = [&](const char* name, const char* d, const char* g,
                    const char* s, double w) {
        c.add_mosfet(name, d, g, s, "0", "nm", w, L);
    };
    auto pmos = [&](const char* name, const char* d, const char* g,
                    const char* s, double w) {
        c.add_mosfet(name, d, g, s, "1", "pm", w, L);
    };

    // --- V-to-I conversion -------------------------------------------------
    nmos("M1", "3", "2", "4", 2e-6);    // input transconductor
    nmos("M2", "4", "4", "0", 10e-6);   // degeneration diode (unit A)
    nmos("M26", "4", "4", "0", 10e-6);  // degeneration diode (unit B)
    pmos("M3", "3", "3", "1", 10e-6);   // PMOS mirror master (unit A)
    pmos("M24", "3", "3", "1", 10e-6);  // PMOS mirror master (unit B)
    pmos("M4", "5", "3", "1", 20e-6);   // charge current source -> rail 5
    pmos("M5", "8", "3", "1", 20e-6);   // branch into NMOS mirror
    nmos("M6", "8", "8", "0", 10e-6);   // NMOS mirror master (unit A)
    nmos("M25", "8", "8", "0", 10e-6);  // NMOS mirror master (unit B)
    nmos("M7", "7", "8", "0", 40e-6);   // discharge sink (2x: asymmetric)

    // --- Analogue switch (two transmission gates) --------------------------
    nmos("M8", "5", "12", "6", 20e-6);   // charge TG, N side
    pmos("M9", "5", "10", "6", 40e-6);   // charge TG, P side
    nmos("M10", "6", "10", "7", 20e-6);  // discharge TG, N side
    pmos("M23", "6", "12", "7", 40e-6);  // discharge TG, P side

    // --- Schmitt trigger (input 6, output 9) --------------------------------
    nmos("M11", "9", "6", "15", 10e-6); // N2: output NMOS (drain 9 is the
                                        // Fig. 6 shorting-resistor target)
    nmos("M12", "15", "6", "0", 10e-6); // N1 (grounded source)
    nmos("M13", "1", "9", "15", 18e-6); // N3 feedback (to VDD)
    pmos("M14", "14", "6", "1", 25e-6);  // P1
    pmos("M15", "9", "6", "14", 25e-6);  // P2
    pmos("M16", "0", "9", "14", 45e-6);  // P3 feedback (to GND)

    // --- Control inverters and output buffer --------------------------------
    pmos("M17", "10", "9", "1", 20e-6);  // INV1: 9 -> 10 (phi)
    nmos("M18", "10", "9", "0", 10e-6);
    pmos("M19", "12", "10", "1", 20e-6); // INV2: 10 -> 12 (phi_b)
    nmos("M20", "12", "10", "0", 10e-6);
    pmos("M21", "11", "10", "1", 40e-6); // output buffer: 10 -> 11
    nmos("M22", "11", "10", "0", 20e-6);

    // --- Timing capacitor ----------------------------------------------------
    c.add_capacitor("C1", "6", "0", opt.cap);

    if (opt.with_sources) {
        // Supply activation at t=0 (the paper starts the transient with the
        // activation of the supply voltage; no explicit stimulus needed).
        c.add_vsource("VDD", "1", "0",
                      SourceSpec::make_pulse(0.0, opt.vdd, 0.0,
                                             opt.supply_ramp, opt.supply_ramp,
                                             1.0, 2.0));
        c.add_vsource("VCTRL", "2", "0", SourceSpec::make_dc(opt.vctrl));
        c.tran = netlist::TranSpec{1e-8, 4e-6, 0.0};  // the 400-step run
        c.save_nodes = {kVcoOutput, kVcoCapNode};
    }
    return c;
}

std::map<std::string, std::string> vco_net_blocks() {
    return {
        {"0", "supply"}, {"1", "supply"},
        {"2", "v2i"},    {"3", "v2i"},   {"4", "v2i"}, {"8", "v2i"},
        {"5", "switch"}, {"6", "switch"}, {"7", "switch"},
        {"9", "schmitt"}, {"14", "schmitt"}, {"15", "schmitt"},
        {"10", "buffer"}, {"11", "buffer"}, {"12", "buffer"},
    };
}

Circuit build_inverter(double vdd) {
    Circuit c;
    c.title = "cmos inverter";
    c.add_model(standard_nmos());
    c.add_model(standard_pmos());
    c.add_vsource("VDD", "vdd", "0", SourceSpec::make_dc(vdd));
    c.add_vsource("VIN", "in", "0", SourceSpec::make_dc(0.0));
    c.add_mosfet("MP", "out", "in", "vdd", "vdd", "pm", 20e-6, 2e-6);
    c.add_mosfet("MN", "out", "in", "0", "0", "nm", 10e-6, 2e-6);
    c.add_capacitor("CL", "out", "0", 50e-15);
    return c;
}

Circuit build_inverter_chain(int stages, bool with_sources) {
    require(stages >= 1, "build_inverter_chain: need at least one stage");
    Circuit c;
    c.title = "inverter chain x" + std::to_string(stages);
    c.add_model(standard_nmos());
    c.add_model(standard_pmos());
    for (int i = 0; i < stages; ++i) {
        const std::string in = std::string("c").append(std::to_string(i));
        const std::string out =
            std::string("c").append(std::to_string(i + 1));
        c.add_mosfet("MP" + std::to_string(i + 1), out, in, "1", "1", "pm",
                     20e-6, 2e-6);
        c.add_mosfet("MN" + std::to_string(i + 1), out, in, "0", "0", "nm",
                     10e-6, 2e-6);
    }
    if (with_sources) {
        c.add_vsource("VDD", "1", "0", SourceSpec::make_dc(5.0));
        c.add_vsource("VIN", "c0", "0",
                      SourceSpec::make_pulse(0, 5, 100e-9, 10e-9, 10e-9,
                                             400e-9, 1e-6));
        c.tran = netlist::TranSpec{2e-9, 1e-6, 0.0};
    }
    return c;
}

Circuit build_schmitt_fixture(double vdd) {
    Circuit c;
    c.title = "schmitt trigger fixture";
    c.add_model(standard_nmos());
    c.add_model(standard_pmos());
    c.add_vsource("VDD", "vdd", "0", SourceSpec::make_dc(vdd));
    // Slow triangle spanning the rails: up in 2us, down in 2us.
    netlist::SourceSpec tri;
    tri.kind = netlist::SourceSpec::Kind::Pwl;
    tri.pwl = {{0.0, 0.0}, {2e-6, vdd}, {4e-6, 0.0}};
    c.add_vsource("VIN", "in", "0", tri);
    c.add_mosfet("MN1", "x2", "in", "0", "0", "nm", 10e-6, 2e-6);
    c.add_mosfet("MN2", "out", "in", "x2", "0", "nm", 10e-6, 2e-6);
    c.add_mosfet("MN3", "vdd", "out", "x2", "0", "nm", 18e-6, 2e-6);
    c.add_mosfet("MP1", "x1", "in", "vdd", "vdd", "pm", 25e-6, 2e-6);
    c.add_mosfet("MP2", "out", "in", "x1", "vdd", "pm", 25e-6, 2e-6);
    c.add_mosfet("MP3", "0", "out", "x1", "vdd", "pm", 45e-6, 2e-6);
    c.add_capacitor("CL", "out", "0", 20e-15);
    c.tran = netlist::TranSpec{2e-9, 4e-6, 0.0};
    return c;
}

} // namespace catlift::circuits
