// catlift/lift/extract_faults.h
//
// GLRFM -- "Global Layout Realistic Faults Mapping" (paper, ch. II/IV):
// the fault extraction performed on the final layout, simultaneously with
// circuit extraction.  For every failure mechanism of the defect statistics
// it enumerates the layout sites where a single spot defect changes the
// circuit topology, evaluates the critical area of each site against the
// defect size distribution, merges sites with identical electrical effect,
// and emits the ranked weighted fault list f1..fN with probabilities
// p1..pN (typically 1e-7 .. 1e-9).
//
// Site classes:
//  * bridges   -- facing conductor pairs on one layer closer than the
//    maximum defect size (includes the global short condition: any net
//    pair, not just terminals of one element);
//  * line opens -- free spans of a conductor between its attachment points;
//    cutting a span splits the net into the attachments on either side.
//    Spans that are bypassed by a redundant path cause no electrical
//    change and are discarded (counted in the statistics);
//  * cut opens -- contact/via clusters; a cluster whose loss disconnects
//    exactly one transistor terminal becomes a transistor stuck-open.
//
// Cost: O(sites + the terminals the open faults' keys list, dropped ones
// included).  Bridges come from a per-layer spatial index,
// and each call memoizes the critical-area integrals by (mechanism, two
// integer dimensions).  For the opens, each fragment gets its incident
// edges (the extractor's same-layer touching pairs, then its cut
// clusters), anchored device terminals and port labels, and one
// Hopcroft-Tarjan depth-first search numbers the fragments in preorder
// with their low points, all built once.  A cut cluster splits its net
// iff its edge is a DFS tree edge no other edge bypasses; a removed
// fragment's neighbours fall into its cut-off child subtrees or the rest
// of its tree.  Each side's terminal count and port flag are prefix-sum
// differences over preorder spans, and a line-open fragment sweeps its
// sorted attachments once, moving them from side B to side A.  Only the
// side that becomes group_b is gathered.  Sites are enumerated in a fixed
// order -- bridges by layer then fragment, line opens by fragment, cut
// opens by cluster -- because merged fault probabilities are
// floating-point sums taken in that order.

#pragma once

#include "defects/defects.h"
#include "extract/extractor.h"
#include "lift/fault.h"

#include <map>
#include <string>

namespace catlift::lift {

struct LiftOptions {
    defects::DefectModel model = defects::DefectModel::date95();

    /// Keep threshold: faults with probability below this are dropped from
    /// the list (they are recorded in the statistics).  The default sits at
    /// the knee that separates single-contact terminal kills (~1.4e-8) from
    /// redundant-junction kills (~0.7e-8) in the reference process, keeping
    /// the dominant bridging population plus the non-redundant contact
    /// opens -- the relevance cut of the paper's ch. IV.
    double p_min = 1.2e-8;

    /// Net -> functional block; bridges across blocks or involving the
    /// "supply" block are classified global.  When empty, a bridge is
    /// local iff the two nets share a device.
    std::map<std::string, std::string> net_blocks;

    extract::ExtractOptions extract_opt;
};

struct LiftStats {
    std::size_t bridge_sites = 0;    ///< raw facing-pair sites
    std::size_t open_sites = 0;      ///< raw line spans examined
    std::size_t cut_sites = 0;       ///< cut clusters examined
    std::size_t redundant_opens = 0; ///< opens bypassed by another path
    std::size_t dangling_opens = 0;  ///< opens with no device on one side
    std::size_t dropped = 0;         ///< faults below the keep threshold
    double dropped_probability = 0.0;
};

struct LiftResult {
    FaultList faults;
    LiftStats stats;
    extract::Extraction extraction;  ///< the simultaneous circuit extraction
};

/// Run GLRFM on a layout.
LiftResult extract_faults(const layout::Layout& lo,
                          const layout::Technology& tech,
                          const LiftOptions& opt = {});

} // namespace catlift::lift
