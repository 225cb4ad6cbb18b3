// catlift/core/cat.h
//
// The paper's primary contribution: a Computer-Aided Test system that
// *links* the realistic fault extraction tool LIFT with the automatic
// analogue fault simulator AnaFAULT (Fig. 1).  This module is the glue:
//
//   schematic ----------------------------+
//       |                                 |
//   layout synthesis / final layout       |
//       |                                 |
//   LIFT: circuit + fault extraction -> weighted fault list
//       |            (LVS against the schematic on the way)
//       v                                 v
//   AnaFAULT: nominal + per-fault simulation -> coverage report
//
// It also produces the Fig. 1 funnel statistics (all schematic faults ->
// L2RFM -> GLRFM) so the fault-list reduction can be reported.

#pragma once

#include "anafault/campaign.h"
#include "anafault/report.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "lift/schematic_faults.h"
#include "netlist/netlist.h"

#include <string>

namespace catlift::core {

struct CatConfig {
    layout::Technology tech = layout::Technology::single_poly_double_metal();
    lift::LiftOptions lift;
    lift::L2rfmOptions l2rfm;
    anafault::CampaignOptions campaign;
};

/// Fault-list funnel of Fig. 1 (arrow widths).
struct FaultFunnel {
    std::size_t all_faults = 0;   ///< complete schematic list
    std::size_t l2rfm = 0;        ///< pre-layout realistic mapping
    std::size_t glrfm = 0;        ///< LIFT (layout) realistic mapping

    double reduction_vs_all() const {
        return all_faults == 0
                   ? 0.0
                   : 100.0 * (1.0 - static_cast<double>(glrfm) /
                                        static_cast<double>(all_faults));
    }
};

/// Everything the CAT run produces.
struct CatReport {
    lift::FaultList schematic_faults;
    lift::FaultList l2rfm_faults;
    lift::LiftResult lift;
    netlist::CompareResult lvs;
    FaultFunnel funnel;
    anafault::CampaignResult campaign;
};

/// Run the complete flow: LIFT on the layout, funnel statistics, LVS, then
/// the AnaFAULT campaign on the simulatable circuit (schematic including
/// its stimulus sources and .tran card).
///
/// `sim_circuit` and `layout` must agree on net and device names (the
/// layout labels carry them); this is checked by the LVS step.
CatReport run_cat(const netlist::Circuit& sim_circuit,
                  const netlist::Circuit& device_schematic,
                  const layout::Layout& layout, const CatConfig& cfg = {});

/// Render the funnel + campaign headline numbers as a text block.
std::string cat_summary(const CatReport& report);

// ---------------------------------------------------------------------------
// Canned VCO experiment (section VI of the paper): builds the schematic,
// synthesises the layout, and returns everything tools/paper_repro, the
// examples and the tests need to run it.

struct VcoExperiment {
    netlist::Circuit sim_circuit;     ///< 26-T VCO with sources + .tran
    netlist::Circuit device_netlist;  ///< devices only (LVS golden)
    layout::Layout layout;
    CatConfig config;
};

/// Assemble the canonical VCO experiment (threads: campaign parallelism).
VcoExperiment make_vco_experiment(unsigned threads = 1);

} // namespace catlift::core
