// catlift/netlist/compare.h
//
// Netlist equivalence checking (the LVS core).  The extractor re-derives a
// transistor-level netlist from the layout; compare_netlists() verifies it
// against the schematic before any fault list is trusted -- LIFT performs
// fault extraction *simultaneously with circuit extraction* (paper, ch. IV),
// so a mismatching extraction would invalidate the fault mapping.
//
// The comparison is name-agnostic.  Both circuits become one bipartite
// device/net incidence graph whose edges carry the terminal role: MOS
// drain and source share a role, as do the two R/C terminals, while source
// polarity and the MOS gate and bulk are roles of their own.  Devices are
// seeded into classes by their signature (kind, polarity, W/L or value
// bucket), nets by whether they are ground.  Partition refinement then
// splits classes until stable -- any two members of a class have, per role,
// equally many edges into every class -- the partition colour refinement
// (1-dimensional Weisfeiler-Leman) reaches at its fixpoint.  A worklist of
// splitter classes, re-enqueuing all pieces of a split but the largest
// (Hopcroft's rule), visits each terminal O(log V) times for V devices
// plus nets: near-linear, where synchronous rounds would visit every
// terminal once per round and a chain needs one round per stage.  There is
// no round cap, so deep circuits are refined as fully as shallow ones.  The circuits match when
// every class holds as many golden as candidate members.

#pragma once

#include "netlist/netlist.h"

#include <map>
#include <string>
#include <vector>

namespace catlift::netlist {

struct CompareResult {
    bool equivalent = false;
    /// Human-readable differences (empty when equivalent).
    std::vector<std::string> diffs;
    /// Net correspondence (schematic net -> layout net): every class that
    /// holds exactly one net on each side.  Nets tied by a symmetry of the
    /// circuit share a class and stay unmapped.
    std::map<std::string, std::string> net_map;
};

/// Structurally compare two circuits.  `value_rel_tol` controls how close
/// component values / W/L must be to be considered identical (extracted
/// geometry snaps to the grid, so exact equality is too strict).
CompareResult compare_netlists(const Circuit& golden, const Circuit& candidate,
                               double value_rel_tol = 1e-3);

} // namespace catlift::netlist
