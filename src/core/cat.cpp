#include "core/cat.h"

#include "circuits/vco.h"

#include <sstream>

namespace catlift::core {

CatReport run_cat(const netlist::Circuit& sim_circuit,
                  const netlist::Circuit& device_schematic,
                  const layout::Layout& layout, const CatConfig& cfg) {
    CatReport rep;

    // Fig. 1 funnel: the three fault-list generations.
    rep.schematic_faults = lift::all_schematic_faults(device_schematic);
    rep.l2rfm_faults = lift::l2rfm_faults(device_schematic, cfg.l2rfm);
    rep.lift = lift::extract_faults(layout, cfg.tech, cfg.lift);
    rep.funnel.all_faults = rep.schematic_faults.size();
    rep.funnel.l2rfm = rep.l2rfm_faults.size();
    rep.funnel.glrfm = rep.lift.faults.size();

    // LVS: the extraction that produced the fault list must match the
    // schematic, otherwise the fault mapping is meaningless.
    rep.lvs = netlist::compare_netlists(device_schematic,
                                        rep.lift.extraction.circuit, 1e-2);
    require(rep.lvs.equivalent,
            "run_cat: extracted netlist does not match the schematic (" +
                (rep.lvs.diffs.empty() ? std::string("?")
                                       : rep.lvs.diffs.front()) +
                ")");

    // AnaFAULT campaign on the realistic fault list.
    rep.campaign = anafault::run_campaign(sim_circuit, rep.lift.faults,
                                          cfg.campaign);
    return rep;
}

std::string cat_summary(const CatReport& rep) {
    std::ostringstream os;
    os << "fault list funnel (Fig. 1):\n";
    os << "  all schematic faults : " << rep.funnel.all_faults << "\n";
    os << "  L2RFM (pre-layout)   : " << rep.funnel.l2rfm << "\n";
    os << "  GLRFM (LIFT, layout) : " << rep.funnel.glrfm << "  ("
       << static_cast<int>(rep.funnel.reduction_vs_all() + 0.5)
       << "% reduction)\n";
    const lift::FaultList& fl = rep.lift.faults;
    os << "  breakdown: " << fl.shorts() << " bridging, "
       << fl.count(lift::FaultKind::LineOpen) +
              fl.count(lift::FaultKind::SplitNode)
       << " line opens/splits, " << fl.count(lift::FaultKind::StuckOpen)
       << " transistor stuck-open\n";
    os << "lvs: " << (rep.lvs.equivalent ? "clean" : "MISMATCH") << "\n\n";
    os << anafault::campaign_summary(rep.campaign);
    return os.str();
}

VcoExperiment make_vco_experiment(unsigned threads) {
    VcoExperiment e;
    e.sim_circuit = circuits::build_vco();

    circuits::VcoOptions dev_opt;
    dev_opt.with_sources = false;
    e.device_netlist = circuits::build_vco(dev_opt);

    e.layout = layout::generate_cell_layout(e.device_netlist,
                                            layout::vco_cellgen_options());

    e.config.lift.net_blocks = circuits::vco_net_blocks();
    e.config.campaign.threads = threads;
    e.config.campaign.detection.observed = {circuits::kVcoOutput};
    return e;
}

} // namespace catlift::core
