// catlift/lift/schematic_faults.h
//
// The two pre-layout fault lists of the paper's Fig. 1 funnel:
//
//  * all_schematic_faults -- "the complete set of possible single hard
//    faults on each component of the circuit" (paper, ch. II): every
//    terminal open and every terminal-pair short of every element, minus
//    pairs that are already connected by design (e.g. the six designed
//    gate-drain shorts of the VCO's diode-connected devices).  For the
//    paper's VCO this yields exactly 79 opens and 73 shorts.
//
//  * l2rfm_faults -- "Local Layout Realistic Faults Mapping" (paper,
//    [18]): the pre-layout reduction that weights each single-element
//    fault with the critical area of the element's *template* layout
//    (cell geometry without routing) and drops faults below the keep
//    threshold.  It cannot see global routing adjacencies -- that is
//    exactly what GLRFM adds.

#pragma once

#include "defects/defects.h"
#include "lift/fault.h"
#include "netlist/netlist.h"

namespace catlift::lift {

/// The complete schematic fault list (unweighted: every fault carries
/// probability 1 so the list is a pure enumeration).
FaultList all_schematic_faults(const netlist::Circuit& ckt);

struct L2rfmOptions {
    defects::DefectModel model = defects::DefectModel::date95();
    double p_min = 5e-9;
};

/// Pre-layout realistic faults per element.
FaultList l2rfm_faults(const netlist::Circuit& ckt,
                       const L2rfmOptions& opt = {});

} // namespace catlift::lift
