#include "circuits/ringosc.h"

#include "circuits/vco.h"

#include <cmath>

namespace catlift::circuits {

using netlist::Circuit;
using netlist::SourceSpec;

std::string ring_node(int i) {
    return std::string("r").append(std::to_string(i));
}

Circuit build_ring_oscillator(const RingOscOptions& opt) {
    require(opt.stages >= 3 && opt.stages % 2 == 1,
            "build_ring_oscillator: stages must be odd and >= 3");
    Circuit c;
    c.title = "ring oscillator x" + std::to_string(opt.stages);
    c.add_model(standard_nmos());
    c.add_model(standard_pmos());

    constexpr double L = 2e-6;
    for (int i = 0; i < opt.stages; ++i) {
        const std::string in = ring_node(i);
        const std::string out = ring_node((i + 1) % opt.stages);
        // Deterministic width spread breaks the symmetric (common-mode)
        // metastable solution so the travelling-wave oscillation starts on
        // its own.  The period-11 pattern is coprime with every practical
        // stage count, so no ring degenerates into replicated copies of a
        // smaller one.
        const double spread =
            1.0 + 0.008 * static_cast<double>((i * 37) % 11 - 5);
        c.add_mosfet("MP" + std::to_string(i + 1), out, in, "vdd", "vdd",
                     "pm", 20e-6 * spread, L);
        c.add_mosfet("MN" + std::to_string(i + 1), out, in, "0", "0", "nm",
                     10e-6 * spread, L);
        c.add_capacitor("CL" + std::to_string(i + 1), out, "0", opt.cload);
    }

    if (opt.with_sources) {
        // Supply activation at t=0, as in the paper's VCO experiment.
        c.add_vsource("VDD", "vdd", "0",
                      SourceSpec::make_pulse(0.0, opt.vdd, 0.0,
                                             opt.supply_ramp, opt.supply_ramp,
                                             1.0, 2.0));
        // A few periods of a mid-sized ring; benches override per N.
        c.tran = netlist::TranSpec{2.5e-9, 1e-6, 0.0};
        c.save_nodes = {ring_node(0)};
    }
    return c;
}

} // namespace catlift::circuits
