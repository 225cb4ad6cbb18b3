// catlift/anafault/fault_models.h
//
// Fault injection: turning a lift::Fault into a mutated circuit for the
// kernel simulator.  "Analogue circuit simulators lack the capability to
// alter the topology of a circuit" (paper, ch. II) -- AnaFAULT supplies it
// by preprocessing the input netlist.  Two simulation models for hard
// faults are supported, exactly as in ch. VI:
//
//  * resistor model -- a short becomes a 0.01 Ohm resistor between the
//    nets, an open a 100 MOhm resistor in the broken path.  Matrix size is
//    unchanged.
//  * source model -- a short becomes an ideal 0 V voltage source (one
//    extra MNA branch unknown, hence the 43% runtime premium measured in
//    ch. VI), an open an ideal 0 A current source (a true disconnection).
//
// Split nodes "split nodes of order n into two new nodes of order k<n and
// n-k" (ch. V): the terminals of group B move to a fresh node, and the
// open element bridges old and new node.

#pragma once

#include "lift/fault.h"
#include "netlist/netlist.h"

#include <string>

namespace catlift::anafault {

enum class HardFaultModel { Resistor, Source };

const char* to_string(HardFaultModel m);

/// The resistor model's element values are the paper's, fixed: 0.01 Ohm
/// shorts and 100 MOhm opens (fault_models.cpp).
struct InjectionOptions {
    HardFaultModel model = HardFaultModel::Resistor;
};

/// Name prefix of every injected element ("FLT..."), so reports and tests
/// can identify them.
inline constexpr const char* kInjectPrefix = "FLT";

/// Inject a short between two nets.
void inject_short(netlist::Circuit& ckt, const std::string& net_a,
                  const std::string& net_b, const InjectionOptions& opt = {});

/// Open one device terminal: the terminal is moved to a fresh node which
/// is tied back to the original net through the open element.
void inject_terminal_open(netlist::Circuit& ckt, const lift::TerminalRef& t,
                          const InjectionOptions& opt = {});

/// Split a node: move every terminal of `group_b` to a fresh node, bridged
/// to the original net by the open element.  Returns the new node name.
std::string inject_split(netlist::Circuit& ckt, const std::string& net,
                         const std::vector<lift::TerminalRef>& group_b,
                         const InjectionOptions& opt = {});

/// Dispatch on the fault kind.  Returns the mutated copy.
netlist::Circuit inject(const netlist::Circuit& ckt, const lift::Fault& f,
                        const InjectionOptions& opt = {});

// ---------------------------------------------------------------------------
// Parametric ("soft") faults: AnaFAULT "can handle arbitrary catastrophic
// and parametric faults" (abstract).  A parametric fault scales one device
// parameter; deviations beyond the test tolerance are detected exactly like
// hard faults.

struct ParametricFault {
    std::string device;  ///< device name
    std::string param;   ///< "value" (R/C), "w", "l" (MOS)
    double factor = 1.0; ///< multiplier applied to the nominal value

    std::string describe() const;
};

/// Apply a parametric fault (returns a mutated copy).
netlist::Circuit inject_parametric(const netlist::Circuit& ckt,
                                   const ParametricFault& f);

/// Deterministic Monte-Carlo deviations: `n` single-parameter faults over
/// the fault-capable devices with log-normal-ish factors of the given
/// relative sigma.
std::vector<ParametricFault> monte_carlo_faults(const netlist::Circuit& ckt,
                                                unsigned n, double sigma,
                                                std::uint64_t seed = 1);

} // namespace catlift::anafault
