#include "lift/schematic_faults.h"

#include <algorithm>

namespace catlift::lift {

using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;

namespace {

/// Terminal name per index for describe()-friendly mechanisms.
const char* mos_term_name(int t) {
    switch (t) {
        case 0: return "d";
        case 1: return "g";
        case 2: return "s";
    }
    return "?";
}

} // namespace

FaultList all_schematic_faults(const Circuit& ckt) {
    FaultList fl;
    fl.circuit = ckt.title;
    int id = 1;

    for (const Device& d : ckt.devices) {
        switch (d.kind) {
            case DeviceKind::Mosfet: {
                // Three single opens (one per terminal).
                for (int t : {0, 1, 2}) {
                    Fault f;
                    f.id = id++;
                    f.kind = FaultKind::LineOpen;
                    f.mechanism = std::string("schem_open_") +
                                  mos_term_name(t);
                    f.probability = 1.0;
                    f.net = d.nodes[static_cast<std::size_t>(t)];
                    f.group_b = {{d.name, t}};
                    fl.faults.push_back(std::move(f));
                }
                // Three terminal-pair shorts, skipping designed
                // connections (same net on both terminals).
                const std::pair<int, int> pairs[] = {{1, 0}, {1, 2}, {0, 2}};
                const char* names[] = {"schem_short_gd", "schem_short_gs",
                                       "schem_short_ds"};
                for (int p = 0; p < 3; ++p) {
                    const auto [t1, t2] = pairs[p];
                    const std::string& n1 =
                        d.nodes[static_cast<std::size_t>(t1)];
                    const std::string& n2 =
                        d.nodes[static_cast<std::size_t>(t2)];
                    if (n1 == n2) continue;  // designed short
                    Fault f;
                    f.id = id++;
                    f.kind = FaultKind::LocalShort;
                    f.mechanism = names[p];
                    f.probability = 1.0;
                    f.net_a = std::min(n1, n2);
                    f.net_b = std::max(n1, n2);
                    fl.faults.push_back(std::move(f));
                }
                break;
            }
            case DeviceKind::Capacitor:
            case DeviceKind::Resistor: {
                for (int t : {0, 1}) {
                    Fault f;
                    f.id = id++;
                    f.kind = FaultKind::LineOpen;
                    f.mechanism = "schem_open";
                    f.probability = 1.0;
                    f.net = d.nodes[static_cast<std::size_t>(t)];
                    f.group_b = {{d.name, t}};
                    fl.faults.push_back(std::move(f));
                    // One terminal open fully disconnects a two-terminal
                    // element; the second open is the same fault.
                    break;
                }
                if (d.nodes[0] != d.nodes[1]) {
                    Fault f;
                    f.id = id++;
                    f.kind = FaultKind::LocalShort;
                    f.mechanism = "schem_short";
                    f.probability = 1.0;
                    f.net_a = std::min(d.nodes[0], d.nodes[1]);
                    f.net_b = std::max(d.nodes[0], d.nodes[1]);
                    fl.faults.push_back(std::move(f));
                }
                break;
            }
            case DeviceKind::VSource:
            case DeviceKind::ISource:
                break;  // stimuli are not fault sites
        }
    }
    return fl;
}

// Template geometry of a single-element layout (nm), used for the
// per-element critical-area estimates: the gate length sets the
// drain-source spacing, the terminal spacing the gate-to-terminal metal
// spacing, the contact size the terminal contact.
constexpr double kGateLengthNm = 2000.0;
constexpr double kTerminalSpacingNm = 2000.0;
constexpr double kContactSizeNm = 2000.0;

FaultList l2rfm_faults(const Circuit& ckt, const L2rfmOptions& opt) {
    FaultList fl;
    fl.circuit = ckt.title;
    const defects::DefectModel& model = opt.model;
    const defects::DefectStatistics& stats = model.stats();

    const auto* m_diff_short =
        stats.find(layout::Layer::NDiff, defects::FailureMode::Short);
    const auto* m_poly_short =
        stats.find(layout::Layer::Poly, defects::FailureMode::Short);
    const auto* m_m1_open =
        stats.find(layout::Layer::Metal1, defects::FailureMode::Open);
    const auto* m_poly_open =
        stats.find(layout::Layer::Poly, defects::FailureMode::Open);
    const auto* m_cd_open = stats.find(layout::Layer::Contact,
                                       defects::FailureMode::Open,
                                       layout::Layer::NDiff);
    require(m_diff_short && m_poly_short && m_m1_open && m_poly_open &&
                m_cd_open,
            "l2rfm: defect statistics lack required mechanisms");

    auto push = [&](Fault f) {
        if (f.probability < opt.p_min) return;
        fl.faults.push_back(std::move(f));
    };

    for (const Device& d : ckt.devices) {
        if (d.kind != DeviceKind::Mosfet) {
            if (d.kind == DeviceKind::Capacitor ||
                d.kind == DeviceKind::Resistor) {
                // Element template: plate/body short across the dielectric
                // footprint; open at the contacted terminal.
                if (d.nodes[0] != d.nodes[1]) {
                    Fault s;
                    s.kind = FaultKind::LocalShort;
                    s.mechanism = "l2_plate_short";
                    s.net_a = std::min(d.nodes[0], d.nodes[1]);
                    s.net_b = std::max(d.nodes[0], d.nodes[1]);
                    // Plates face each other over the full perimeter; use a
                    // generous facing length (100 um template).
                    s.probability = model.bridge_probability(
                        *m_diff_short, 100000.0, kTerminalSpacingNm);
                    push(std::move(s));
                }
                Fault o;
                o.kind = FaultKind::LineOpen;
                o.mechanism = "l2_contact_open";
                o.net = d.nodes[0];
                o.group_b = {{d.name, 0}};
                o.probability = model.cut_probability(
                    *m_cd_open, kContactSizeNm, kContactSizeNm);
                push(std::move(o));
            }
            continue;
        }

        const double w_nm = d.w * 1e9;
        // Drain-source bridge across the gate: facing length = W,
        // spacing = L (diffusion mechanism).
        if (d.drain() != d.source_node()) {
            Fault f;
            f.kind = FaultKind::LocalShort;
            f.mechanism = "l2_ds_short";
            f.net_a = std::min(d.drain(), d.source_node());
            f.net_b = std::max(d.drain(), d.source_node());
            f.probability =
                model.bridge_probability(*m_diff_short, w_nm, kGateLengthNm);
            push(std::move(f));
        }
        // Gate to drain / source bridges: poly flank faces the terminal
        // metal over the channel width.
        for (int t : {0, 2}) {
            const std::string& n = d.nodes[static_cast<std::size_t>(t)];
            if (n == d.gate()) continue;  // designed gate-drain short
            Fault f;
            f.kind = FaultKind::LocalShort;
            f.mechanism = t == 0 ? "l2_gd_short" : "l2_gs_short";
            f.net_a = std::min(d.gate(), n);
            f.net_b = std::max(d.gate(), n);
            f.probability = model.bridge_probability(
                *m_poly_short, w_nm, kTerminalSpacingNm);
            push(std::move(f));
        }
        // Terminal opens: drain/source from contact clusters, gate from
        // the poly neck between pad and channel.
        for (int t : {0, 2}) {
            Fault f;
            f.kind = FaultKind::LineOpen;
            f.mechanism = "l2_contact_open";
            f.net = d.nodes[static_cast<std::size_t>(t)];
            f.group_b = {{d.name, t}};
            // A double contact: two contacts and their gap, 3 sizes long.
            f.probability = model.cut_probability(
                *m_cd_open, kContactSizeNm, 3 * kContactSizeNm);
            push(std::move(f));
        }
        {
            Fault f;
            f.kind = FaultKind::LineOpen;
            f.mechanism = "l2_gate_open";
            f.net = d.gate();
            f.group_b = {{d.name, 1}};
            // Poly neck: ~4 um of minimum-width poly in the template.
            f.probability = model.open_probability(*m_poly_open, 4000.0,
                                                   kGateLengthNm);
            push(std::move(f));
        }
    }
    fl.rank();
    return fl;
}

} // namespace catlift::lift
