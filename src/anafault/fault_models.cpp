#include "anafault/fault_models.h"

#include <cmath>
#include <map>

namespace catlift::anafault {

using lift::Fault;
using lift::FaultKind;
using lift::TerminalRef;
using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;
using netlist::SourceSpec;

const char* to_string(HardFaultModel m) {
    return m == HardFaultModel::Resistor ? "resistor" : "source";
}

namespace {

/// The resistor model's element values (paper, ch. VI).
constexpr double kShortResistance = 0.01;  ///< [Ohm]
constexpr double kOpenResistance = 100e6;  ///< [Ohm]

/// True if nodes `a` and `b` are already tied by a chain of the circuit's
/// ideal voltage sources (ground is a node like any other): a union-find
/// over the sources' nodes.
bool tied_by_vsources(const Circuit& ckt, const std::string& a,
                      const std::string& b) {
    std::map<std::string, std::string> parent;
    auto find = [&](std::string n) {
        for (auto it = parent.find(n); it != parent.end() && it->second != n;
             it = parent.find(n))
            n = it->second;
        return n;
    };
    for (const Device& d : ckt.devices) {
        if (d.kind != DeviceKind::VSource) continue;
        const std::string p = find(netlist::canon_node(d.nodes[0]));
        const std::string q = find(netlist::canon_node(d.nodes[1]));
        if (p != q) parent[p] = q;
    }
    return find(a) == find(b);
}

} // namespace

void inject_short(Circuit& ckt, const std::string& net_a,
                  const std::string& net_b, const InjectionOptions& opt) {
    const std::string a = netlist::canon_node(net_a);
    const std::string b = netlist::canon_node(net_b);
    require(a != b, "inject_short: nets are identical: " + net_a);
    const std::string name = ckt.fresh_device(kInjectPrefix);
    if (opt.model == HardFaultModel::Resistor) {
        ckt.add_resistor(name, net_a, net_b, kShortResistance);
    } else {
        // Ideal short: 0 V source (adds one MNA branch).  Across nets that
        // ideal sources already tie, it would close a loop of voltage
        // sources: a singular MNA system, not a circuit to simulate.
        require(!tied_by_vsources(ckt, a, b),
                "inject_short: a 0 V source between nets " + net_a +
                    " and " + net_b +
                    " closes a loop of ideal voltage sources");
        ckt.add_vsource(name, net_a, net_b, SourceSpec::make_dc(0.0));
    }
}

namespace {

/// Tie `node_new` back to `node_old` through the open element.
void add_open_element(Circuit& ckt, const std::string& node_old,
                      const std::string& node_new,
                      const InjectionOptions& opt) {
    const std::string name = ckt.fresh_device(kInjectPrefix);
    if (opt.model == HardFaultModel::Resistor) {
        ckt.add_resistor(name, node_old, node_new, kOpenResistance);
    } else {
        // Ideal open: 0 A source (keeps the node in the matrix without a
        // conductance path; gmin holds the floating side).
        ckt.add_isource(name, node_old, node_new, SourceSpec::make_dc(0.0));
    }
}

} // namespace

void inject_terminal_open(Circuit& ckt, const TerminalRef& t,
                          const InjectionOptions& opt) {
    Device& d = ckt.device(t.device);
    require(t.terminal >= 0 &&
                static_cast<std::size_t>(t.terminal) < d.nodes.size(),
            "inject_terminal_open: bad terminal on " + t.device);
    const std::string old_node = d.nodes[static_cast<std::size_t>(t.terminal)];
    const std::string new_node = ckt.fresh_node("flt");
    d.nodes[static_cast<std::size_t>(t.terminal)] = new_node;
    add_open_element(ckt, old_node, new_node, opt);
}

std::string inject_split(Circuit& ckt, const std::string& net,
                         const std::vector<TerminalRef>& group_b,
                         const InjectionOptions& opt) {
    require(!group_b.empty(), "inject_split: empty terminal group");
    const std::string node = netlist::canon_node(net);
    const std::string new_node = ckt.fresh_node("flt");
    std::vector<std::pair<std::string, int>> terms;
    for (const TerminalRef& t : group_b) {
        const Device& d = ckt.device(t.device);
        require(t.terminal >= 0 &&
                    static_cast<std::size_t>(t.terminal) < d.nodes.size(),
                "inject_split: bad terminal on " + t.device);
        require(d.nodes[static_cast<std::size_t>(t.terminal)] == node,
                "inject_split: terminal " + t.device + ":" +
                    std::to_string(t.terminal) + " is not on net " + net);
        terms.emplace_back(t.device, t.terminal);
    }
    ckt.rename_node_on(terms, new_node);
    add_open_element(ckt, node, new_node, opt);
    return new_node;
}

Circuit inject(const Circuit& ckt, const Fault& f,
               const InjectionOptions& opt) {
    Circuit out = ckt;
    switch (f.kind) {
        case FaultKind::LocalShort:
        case FaultKind::GlobalShort:
            inject_short(out, f.net_a, f.net_b, opt);
            break;
        case FaultKind::StuckOpen:
            inject_terminal_open(out, f.victim, opt);
            break;
        case FaultKind::LineOpen:
        case FaultKind::SplitNode:
            if (f.group_b.size() == 1)
                inject_terminal_open(out, f.group_b[0], opt);
            else
                inject_split(out, f.net, f.group_b, opt);
            break;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Parametric faults

std::string ParametricFault::describe() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "PAR %s.%s x%.3g", device.c_str(),
                  param.c_str(), factor);
    return buf;
}

Circuit inject_parametric(const Circuit& ckt, const ParametricFault& f) {
    Circuit out = ckt;
    Device& d = out.device(f.device);
    require(f.factor > 0, "inject_parametric: factor must be positive");
    if (f.param == "value") {
        require(d.kind == DeviceKind::Resistor ||
                    d.kind == DeviceKind::Capacitor,
                "parametric 'value' needs an R or C: " + f.device);
        d.value *= f.factor;
    } else if (f.param == "w") {
        require(d.kind == DeviceKind::Mosfet,
                "parametric 'w' needs a MOSFET: " + f.device);
        d.w *= f.factor;
    } else if (f.param == "l") {
        require(d.kind == DeviceKind::Mosfet,
                "parametric 'l' needs a MOSFET: " + f.device);
        d.l *= f.factor;
    } else {
        throw Error("inject_parametric: unknown parameter " + f.param);
    }
    return out;
}

std::vector<ParametricFault> monte_carlo_faults(const Circuit& ckt,
                                                unsigned n, double sigma,
                                                std::uint64_t seed) {
    // Candidate (device, param) sites.
    std::vector<std::pair<std::string, std::string>> sites;
    for (const Device& d : ckt.devices) {
        switch (d.kind) {
            case DeviceKind::Resistor:
            case DeviceKind::Capacitor:
                sites.emplace_back(d.name, "value");
                break;
            case DeviceKind::Mosfet:
                sites.emplace_back(d.name, "w");
                sites.emplace_back(d.name, "l");
                break;
            default: break;
        }
    }
    require(!sites.empty(), "monte_carlo_faults: no parametric sites");

    // xorshift64* PRNG; Box-Muller for the gaussian deviate.
    std::uint64_t s = seed ? seed : 0x9E3779B97F4A7C15ull;
    auto next_u = [&]() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    };
    auto uniform = [&]() {
        return (static_cast<double>(next_u() >> 11) + 0.5) / 9007199254740992.0;
    };

    std::vector<ParametricFault> out;
    out.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        const auto& [dev, param] = sites[next_u() % sites.size()];
        const double u1 = uniform(), u2 = uniform();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * M_PI * u2);
        ParametricFault f;
        f.device = dev;
        f.param = param;
        f.factor = std::exp(sigma * z);  // log-normal around 1
        out.push_back(std::move(f));
    }
    return out;
}

} // namespace catlift::anafault
