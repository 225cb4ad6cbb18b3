// catlift/extract/extractor.h
//
// Layout-to-netlist extraction.  LIFT performs fault extraction
// "simultaneously with the transistor-level circuit extraction" (paper,
// ch. IV): this module provides that circuit extraction and exposes the
// intermediate geometric artefacts (conducting fragments, cut clusters,
// device anchors) that the fault extractor reuses for its critical-area
// sites and open/split analysis.
//
// Pipeline:
//   1. Fragmentation: conducting shapes are copied; diffusion shapes are
//      clipped against gate regions (poly over diffusion), which breaks
//      source/drain connectivity through the channel.
//   2. Connectivity: union-find over same-layer touching fragments plus
//      contact/via stitches -> nets; labels name them.
//   3. Device recognition: each gate region (poly x diffusion) becomes a
//      MOSFET; W/L from the gate geometry, terminals from the adjacent
//      fragments.  CapMark regions become capacitors (plate overlap area
//      times the technology capacitance).
//   4. Netlist construction + LVS against a golden schematic.
//
// Cost: no step scans the whole layout per site.  Gate regions come from a
// poly index, diffusion is clipped only against the gates a gate index
// returns, and devices find their anchors through a poly-shape -> fragment
// map and per-type diffusion indexes.  Connectivity runs one conducting
// layer at a time: one uniform-grid index (20 um pitch) per layer unites
// touching fragments and lands every contact, via and label on that layer,
// then is dropped, so the extra memory is one layer's index.  Cut clusters
// are formed within (cut layer, upper net, lower net, lower layer) buckets
// by a sweep over x.  SpatialIndex::query returns ascending ids, so every
// "first fragment" choice and the fragment, net, cut and device order are
// those of an exhaustive scan.

#pragma once

#include "layout/cellgen.h"
#include "layout/layout.h"
#include "netlist/compare.h"
#include "netlist/netlist.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace catlift::extract {

/// A conducting rectangle after fragmentation.
struct Fragment {
    layout::Layer layer;
    geom::Rect rect;
    std::size_t shape;   ///< originating Layout::shapes index
    std::string owner;   ///< provenance copied from the shape
    int net = -1;        ///< net id after connectivity
};

/// A cluster of cut shapes (contacts or vias) joining the same pair of
/// fragments.  Redundant double contacts/vias form one cluster of size 2:
/// only a defect covering the whole cluster creates an open.
struct CutCluster {
    layout::Layer layer;             ///< Contact or Via
    std::vector<std::size_t> cuts;   ///< Layout::shapes indices
    std::size_t frag_a = 0;          ///< joined fragments (indices)
    std::size_t frag_b = 0;
    geom::Rect bbox;                 ///< bounding box of the cluster
    std::string owner;
};

/// One recognised MOSFET.
struct ExtractedMos {
    std::string name;        ///< from provenance ("M11") or synthesised
    bool is_nmos = true;
    geom::Rect gate;         ///< channel rectangle
    double w = 0, l = 0;     ///< metres
    int net_gate = -1, net_source = -1, net_drain = -1;
    std::size_t frag_gate = 0, frag_source = 0, frag_drain = 0;  ///< anchors
};

/// One recognised capacitor.
struct ExtractedCap {
    std::string name;
    double value = 0;  ///< farads
    int net_top = -1, net_bottom = -1;
    std::size_t frag_top = 0, frag_bottom = 0;
};

struct ExtractOptions {
    std::string nmos_model = "nm";
    std::string pmos_model = "pm";
    std::string nmos_bulk = "0";
    std::string pmos_bulk = "1";
    netlist::MosModel nmos_card;  ///< model cards attached to the netlist
    netlist::MosModel pmos_card;

    ExtractOptions();
};

/// Full extraction result.
struct Extraction {
    std::vector<Fragment> fragments;
    std::vector<CutCluster> cuts;
    std::vector<ExtractedMos> mosfets;
    std::vector<ExtractedCap> caps;
    std::vector<std::string> net_names;   ///< net id -> name
    netlist::Circuit circuit;             ///< extracted netlist

    /// Same-layer touching fragment pairs (a < b) -- exactly the pairs the
    /// connectivity pass unites -- sorted by (a, b).
    std::vector<std::pair<std::size_t, std::size_t>> touching;
    /// Per layout label: the lowest-index fragment on the label's layer
    /// that contains its point (the fragment that names the net).
    std::vector<std::size_t> label_fragments;

    int net_id(const std::string& name) const;
    const std::string& net_name(int id) const {
        return net_names.at(static_cast<std::size_t>(id));
    }
};

/// Run the extraction.  Throws catlift::Error on inconsistent layouts
/// (conflicting labels, contacts bridging three conductors, gates without
/// source/drain).
Extraction extract(const layout::Layout& lo, const layout::Technology& tech,
                   const ExtractOptions& opt = {});

/// LVS: extract + structural compare against the golden schematic (power
/// sources in the schematic are ignored).
netlist::CompareResult lvs(const layout::Layout& lo,
                           const layout::Technology& tech,
                           const netlist::Circuit& schematic,
                           const ExtractOptions& opt = {});

} // namespace catlift::extract
