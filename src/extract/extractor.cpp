#include "extract/extractor.h"

#include "circuits/vco.h"
#include "geom/region.h"
#include "geom/spatial_index.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>

namespace catlift::extract {

using geom::Rect;
using layout::Layer;
using layout::Layout;
using layout::Technology;

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Grid pitch of the extractor's spatial indexes (20 um).
constexpr geom::Coord kIndexCell = 20 * 1000;

/// Disjoint-set over fragment indices.
class UnionFind {
public:
    explicit UnionFind(std::size_t n) : parent_(n) {
        for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    }
    std::size_t find(std::size_t x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }
    void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

private:
    std::vector<std::size_t> parent_;
};

/// A recognised gate region: poly over diffusion.
struct GateRegion {
    Rect rect;
    std::size_t poly_shape;
    std::size_t chan_shape;  ///< the diffusion shape the channel came from
    bool is_nmos;
    std::string owner;       ///< provenance of the channel diffusion
};

std::string owner_device(const std::string& owner) {
    const auto colon = owner.find(':');
    return colon == std::string::npos ? owner : owner.substr(0, colon);
}

char owner_terminal(const std::string& owner) {
    const auto colon = owner.find(':');
    return (colon == std::string::npos || colon + 1 >= owner.size())
               ? '?'
               : owner[colon + 1];
}

} // namespace

ExtractOptions::ExtractOptions()
    : nmos_card(circuits::standard_nmos()), pmos_card(circuits::standard_pmos()) {}

int Extraction::net_id(const std::string& name) const {
    for (std::size_t i = 0; i < net_names.size(); ++i)
        if (net_names[i] == name) return static_cast<int>(i);
    throw Error("Extraction: no net named " + name);
}

Extraction extract(const Layout& lo, const Technology& tech,
                   const ExtractOptions& opt) {
    Extraction ex;

    // ---- 1. Gate regions -------------------------------------------------
    // Each diffusion shape meets only the poly shapes a poly index returns;
    // query() yields ascending shape ids, the order a full scan visits them.
    std::vector<GateRegion> gates;
    {
        geom::SpatialIndex poly(kIndexCell);
        for (std::size_t pi : lo.on_layer(Layer::Poly))
            poly.insert(pi, lo.shapes[pi].rect);
        for (Layer diff : {Layer::NDiff, Layer::PDiff}) {
            for (std::size_t di : lo.on_layer(diff)) {
                for (std::size_t pi : poly.query(lo.shapes[di].rect)) {
                    const auto ov = geom::intersection(lo.shapes[di].rect,
                                                       lo.shapes[pi].rect);
                    if (!ov || ov->empty()) continue;
                    gates.push_back(GateRegion{*ov, pi, di,
                                               diff == Layer::NDiff,
                                               lo.shapes[di].owner});
                }
            }
        }
    }

    // ---- 2. Fragmentation -------------------------------------------------
    // poly_frag: poly shape -> its fragment (poly is never clipped).
    std::vector<std::size_t> poly_frag(lo.shapes.size(), kNone);
    {
        geom::SpatialIndex gate_idx(kIndexCell);
        for (std::size_t gi = 0; gi < gates.size(); ++gi)
            gate_idx.insert(gi, gates[gi].rect);
        for (std::size_t si = 0; si < lo.shapes.size(); ++si) {
            const layout::Shape& s = lo.shapes[si];
            if (!layout::is_conducting(s.layer)) continue;
            if (s.layer == Layer::NDiff || s.layer == Layer::PDiff) {
                // Clip the gate areas out of the diffusion, in gate order.
                std::vector<Rect> parts{s.rect};
                for (std::size_t gi : gate_idx.query(s.rect)) {
                    const GateRegion& g = gates[gi];
                    if (!g.rect.overlaps(s.rect)) continue;
                    std::vector<Rect> next;
                    for (const Rect& p : parts) {
                        auto cut = geom::subtract(p, g.rect);
                        next.insert(next.end(), cut.begin(), cut.end());
                    }
                    parts = std::move(next);
                }
                for (const Rect& p : parts)
                    ex.fragments.push_back(
                        Fragment{s.layer, p, si, s.owner, -1});
            } else {
                if (s.layer == Layer::Poly) poly_frag[si] = ex.fragments.size();
                ex.fragments.push_back(
                    Fragment{s.layer, s.rect, si, s.owner, -1});
            }
        }
    }
    std::array<std::vector<std::size_t>, layout::kLayerCount> by_layer;
    for (std::size_t i = 0; i < ex.fragments.size(); ++i)
        by_layer[static_cast<std::size_t>(ex.fragments[i].layer)].push_back(i);

    // ---- 3. Connectivity ---------------------------------------------------
    // One layer at a time: index the layer's fragments, unite the touching
    // pairs, and look up the cuts and labels that land on the layer.  Only
    // one layer's index is alive at any time.
    struct RawCut {
        std::size_t shape;
        Layer layer;
        std::size_t upper;  // first (lowest-index) upper fragment
        std::size_t lower;  // first lower fragment
    };
    std::vector<RawCut> raw_cuts;
    UnionFind uf(ex.fragments.size());
    {
        struct Landing {
            std::size_t shape;
            Layer layer;                      // Contact or Via
            std::vector<std::size_t> uppers;  // metal1 (contact) / metal2 (via)
            std::vector<std::size_t> lowers;  // poly-or-diff (contact) / metal1
        };
        std::vector<Landing> landings;
        for (std::size_t si = 0; si < lo.shapes.size(); ++si) {
            const Layer l = lo.shapes[si].layer;
            if (l == Layer::Contact || l == Layer::Via)
                landings.push_back(Landing{si, l, {}, {}});
        }
        ex.label_fragments.assign(lo.labels.size(), kNone);
        for (std::size_t li = 0; li < layout::kLayerCount; ++li) {
            const Layer layer = static_cast<Layer>(li);
            const std::vector<std::size_t>& ids = by_layer[li];
            if (ids.empty()) continue;
            geom::SpatialIndex idx(kIndexCell);
            for (std::size_t i : ids) idx.insert(i, ex.fragments[i].rect);
            for (std::size_t i : ids) {
                for (std::size_t j : idx.neighbours(ex.fragments[i].rect, 0)) {
                    if (j <= i) continue;
                    if (ex.fragments[i].rect.touches(ex.fragments[j].rect)) {
                        uf.unite(i, j);
                        ex.touching.emplace_back(i, j);
                    }
                }
            }
            for (Landing& c : landings) {
                const bool upper = layer == (c.layer == Layer::Contact
                                                 ? Layer::Metal1
                                                 : Layer::Metal2);
                const bool lower = c.layer == Layer::Contact
                                       ? (layer == Layer::Poly ||
                                          layer == Layer::NDiff ||
                                          layer == Layer::PDiff)
                                       : layer == Layer::Metal1;
                if (!upper && !lower) continue;
                const Rect& r = lo.shapes[c.shape].rect;
                for (std::size_t f : idx.query(r))
                    if (ex.fragments[f].rect.overlaps(r))
                        (upper ? c.uppers : c.lowers).push_back(f);
            }
            for (std::size_t l = 0; l < lo.labels.size(); ++l) {
                const layout::Label& lb = lo.labels[l];
                if (lb.layer != layer) continue;
                const auto hits =
                    idx.query(Rect(lb.at.x, lb.at.y, lb.at.x, lb.at.y));
                if (!hits.empty()) ex.label_fragments[l] = hits.front();
            }
        }
        std::sort(ex.touching.begin(), ex.touching.end());

        // Cut stitches (and cluster bookkeeping), in shape order.
        for (Landing& c : landings) {
            const std::string& owner = lo.shapes[c.shape].owner;
            if (c.layer == Layer::Contact) {
                require(!c.uppers.empty() && !c.lowers.empty(),
                        "extract: contact not joining metal1 to poly/diffusion "
                        "(owner " + owner + ")");
                // A contact bridging both poly and diffusion is a layout bug.
                bool on_poly = false, on_diff = false;
                for (std::size_t f : c.lowers)
                    (ex.fragments[f].layer == Layer::Poly ? on_poly : on_diff) =
                        true;
                require(!(on_poly && on_diff),
                        "extract: contact bridges poly and diffusion (owner " +
                            owner + ")");
                // Lower hits arrive layer by layer; the first is the lowest id.
                std::sort(c.lowers.begin(), c.lowers.end());
            } else {
                require(!c.uppers.empty() && !c.lowers.empty(),
                        "extract: via not joining metal1 to metal2 (owner " +
                            owner + ")");
            }
            for (std::size_t u : c.uppers)
                for (std::size_t l : c.lowers) uf.unite(u, l);
            raw_cuts.push_back(
                RawCut{c.shape, c.layer, c.uppers.front(), c.lowers.front()});
        }
    }

    // ---- 4. Net numbering + labels -----------------------------------------
    // Nets are numbered in order of their lowest fragment.
    {
        std::vector<int> root_net(ex.fragments.size(), -1);
        int n_nets = 0;
        for (std::size_t i = 0; i < ex.fragments.size(); ++i) {
            int& net = root_net[uf.find(i)];
            if (net < 0) net = n_nets++;
            ex.fragments[i].net = net;
        }
        ex.net_names.assign(static_cast<std::size_t>(n_nets), "");
    }
    for (std::size_t l = 0; l < lo.labels.size(); ++l) {
        const layout::Label& lb = lo.labels[l];
        require(ex.label_fragments[l] != kNone,
                "extract: label '" + lb.text + "' touches no conductor");
        std::string& name = ex.net_names[static_cast<std::size_t>(
            ex.fragments[ex.label_fragments[l]].net)];
        require(name.empty() || name == lb.text,
                "extract: conflicting labels '" + name + "' and '" +
                    lb.text + "' on one net");
        name = lb.text;
    }
    {
        int anon = 0;
        std::set<std::string> used(ex.net_names.begin(), ex.net_names.end());
        for (std::string& n : ex.net_names) {
            if (!n.empty()) continue;
            do {
                n = "n$" + std::to_string(anon++);
            } while (used.count(n));
            used.insert(n);
        }
    }

    // ---- 5. Cut clusters -----------------------------------------------------
    // Redundant cuts implementing the same junction are grouped: same cut
    // layer, same joined nets and lower layer, and within one defect
    // diameter of each other.  A cluster can only be opened by a defect
    // spanning its whole bounding box.  Candidates are compared only within
    // their (cut layer, upper net, lower net, lower layer) bucket, by a
    // sweep over x.
    {
        constexpr geom::Coord kClusterDist = 6 * 1000;  // 6 um
        UnionFind cuf(raw_cuts.size());
        std::map<std::array<int, 4>, std::vector<std::size_t>> buckets;
        for (std::size_t i = 0; i < raw_cuts.size(); ++i) {
            const RawCut& rc = raw_cuts[i];
            buckets[{static_cast<int>(rc.layer), ex.fragments[rc.upper].net,
                     ex.fragments[rc.lower].net,
                     static_cast<int>(ex.fragments[rc.lower].layer)}]
                .push_back(i);
        }
        auto rect_of = [&](std::size_t i) -> const Rect& {
            return lo.shapes[raw_cuts[i].shape].rect;
        };
        for (auto& [key, members] : buckets) {
            std::sort(members.begin(), members.end(),
                      [&](std::size_t a, std::size_t b) {
                          return rect_of(a).lo.x < rect_of(b).lo.x;
                      });
            for (std::size_t a = 0; a < members.size(); ++a) {
                const Rect& ra = rect_of(members[a]);
                for (std::size_t b = a + 1; b < members.size(); ++b) {
                    const Rect& rb = rect_of(members[b]);
                    if (rb.lo.x - ra.hi.x > kClusterDist) break;
                    if (geom::separation(ra, rb) <= kClusterDist)
                        cuf.unite(members[a], members[b]);
                }
            }
        }
        std::vector<std::size_t> root_cluster(raw_cuts.size(), kNone);
        for (std::size_t i = 0; i < raw_cuts.size(); ++i) {
            const RawCut& rc = raw_cuts[i];
            std::size_t& cluster = root_cluster[cuf.find(i)];
            if (cluster == kNone) {
                cluster = ex.cuts.size();
                CutCluster cc;
                cc.layer = rc.layer;
                cc.frag_a = rc.upper;
                cc.frag_b = rc.lower;
                cc.bbox = lo.shapes[rc.shape].rect;
                cc.owner = lo.shapes[rc.shape].owner;
                cc.cuts.push_back(rc.shape);
                ex.cuts.push_back(std::move(cc));
            } else {
                CutCluster& cc = ex.cuts[cluster];
                cc.cuts.push_back(rc.shape);
                cc.bbox = cc.bbox.united(lo.shapes[rc.shape].rect);
            }
        }
    }

    // ---- 6. Device recognition ------------------------------------------------
    int anon_dev = 0;
    {
        // Source/drain candidates come from per-type diffusion indexes.
        geom::SpatialIndex ndiff(kIndexCell), pdiff(kIndexCell);
        for (std::size_t i : by_layer[static_cast<std::size_t>(Layer::NDiff)])
            ndiff.insert(i, ex.fragments[i].rect);
        for (std::size_t i : by_layer[static_cast<std::size_t>(Layer::PDiff)])
            pdiff.insert(i, ex.fragments[i].rect);
        for (const GateRegion& g : gates) {
            ExtractedMos m;
            m.is_nmos = g.is_nmos;
            m.gate = g.rect;
            const std::string dev = owner_device(g.owner);
            m.name = !dev.empty() ? dev : ("MX" + std::to_string(anon_dev++));

            // Gate fragment: the poly fragment of the gate strip.
            m.frag_gate = poly_frag[g.poly_shape];
            require(m.frag_gate != kNone,
                    "extract: gate fragment missing for " + m.name);
            m.net_gate = ex.fragments[m.frag_gate].net;

            // Source/drain: diffusion fragments sharing a full edge with
            // the channel.  Left/right if the diffusion abuts in x, else
            // top/bottom.
            std::vector<std::size_t> left, right, below, above;
            for (std::size_t i : (g.is_nmos ? ndiff : pdiff).query(g.rect)) {
                const Rect& r = ex.fragments[i].rect;
                if (r.overlaps(g.rect)) continue;  // residual sliver
                if (r.hi.x == g.rect.lo.x && geom::y_overlap(r, g.rect) > 0)
                    left.push_back(i);
                else if (r.lo.x == g.rect.hi.x &&
                         geom::y_overlap(r, g.rect) > 0)
                    right.push_back(i);
                else if (r.hi.y == g.rect.lo.y &&
                         geom::x_overlap(r, g.rect) > 0)
                    below.push_back(i);
                else if (r.lo.y == g.rect.hi.y &&
                         geom::x_overlap(r, g.rect) > 0)
                    above.push_back(i);
            }
            bool horizontal;  // current flow along x (gate splits left/right)
            std::size_t fa, fb;
            if (!left.empty() && !right.empty()) {
                horizontal = true;
                fa = left.front();
                fb = right.front();
            } else if (!below.empty() && !above.empty()) {
                horizontal = false;
                fa = below.front();
                fb = above.front();
            } else {
                throw Error("extract: gate of " + m.name +
                            " lacks source/drain diffusion on opposite sides");
            }
            m.l = geom::to_um(horizontal ? g.rect.width() : g.rect.height()) *
                  1e-6;
            m.w = geom::to_um(horizontal ? g.rect.height() : g.rect.width()) *
                  1e-6;

            // Assign source/drain by provenance when available.
            const Fragment& A = ex.fragments[fa];
            if (owner_terminal(A.owner) == 's') {
                m.frag_source = fa;
                m.frag_drain = fb;
            } else if (owner_terminal(A.owner) == 'd') {
                m.frag_source = fb;
                m.frag_drain = fa;
            } else {
                m.frag_drain = fa;
                m.frag_source = fb;
            }
            m.net_source = ex.fragments[m.frag_source].net;
            m.net_drain = ex.fragments[m.frag_drain].net;
            ex.mosfets.push_back(std::move(m));
        }
    }

    // ---- 7. Capacitor recognition ------------------------------------------
    const auto marks = lo.on_layer(Layer::CapMark);
    if (!marks.empty()) {
        geom::SpatialIndex metal1(kIndexCell), poly(kIndexCell);
        for (std::size_t i : by_layer[static_cast<std::size_t>(Layer::Metal1)])
            metal1.insert(i, ex.fragments[i].rect);
        for (std::size_t i : by_layer[static_cast<std::size_t>(Layer::Poly)])
            poly.insert(i, ex.fragments[i].rect);
        for (std::size_t si : marks) {
            const layout::Shape& mark = lo.shapes[si];
            ExtractedCap cap;
            cap.name = owner_device(mark.owner);
            if (cap.name.empty()) cap.name = "CX" + std::to_string(anon_dev++);
            // The plates are whatever metal1 / poly conductors overlap the
            // recognition box; the electrode fragment with the largest
            // marker overlap defines each plate's net, and the capacitance
            // integrates the union of all metal1-over-poly overlap inside
            // the marker.
            auto plates = [&](const geom::SpatialIndex& idx, std::size_t& frag,
                              int& net) {
                std::vector<std::size_t> hits;
                double best = 0.0;
                for (std::size_t i : idx.query(mark.rect)) {
                    auto ov =
                        geom::intersection(ex.fragments[i].rect, mark.rect);
                    if (!ov || ov->empty()) continue;
                    hits.push_back(i);
                    if (ov->area() > best) {
                        best = ov->area();
                        frag = i;
                        net = ex.fragments[i].net;
                    }
                }
                return hits;
            };
            const auto tops = plates(metal1, cap.frag_top, cap.net_top);
            const auto bots = plates(poly, cap.frag_bottom, cap.net_bottom);
            require(!tops.empty() && !bots.empty(),
                    "extract: capacitor marker without both plates: " +
                        cap.name);
            geom::Region overlap;
            for (std::size_t ti : tops) {
                if (ex.fragments[ti].net != cap.net_top) continue;
                for (std::size_t bi : bots) {
                    if (ex.fragments[bi].net != cap.net_bottom) continue;
                    auto o1 = geom::intersection(ex.fragments[ti].rect,
                                                 ex.fragments[bi].rect);
                    if (!o1) continue;
                    auto o2 = geom::intersection(*o1, mark.rect);
                    if (o2 && !o2->empty()) overlap.add(*o2);
                }
            }
            require(!overlap.empty(),
                    "extract: capacitor plates do not overlap inside marker");
            const double area_m2 = geom::to_um2(overlap.union_area()) * 1e-12;
            cap.value = area_m2 * tech.cap_per_area;
            ex.caps.push_back(std::move(cap));
        }
    }

    // ---- 8. Netlist construction ---------------------------------------------
    ex.circuit.title = "extracted from " + lo.name;
    {
        netlist::MosModel nm = opt.nmos_card;
        nm.name = opt.nmos_model;
        netlist::MosModel pm = opt.pmos_card;
        pm.name = opt.pmos_model;
        pm.is_nmos = false;
        nm.is_nmos = true;
        ex.circuit.add_model(nm);
        ex.circuit.add_model(pm);
    }
    for (const ExtractedMos& m : ex.mosfets) {
        ex.circuit.add_mosfet(
            m.name, ex.net_name(m.net_drain), ex.net_name(m.net_gate),
            ex.net_name(m.net_source),
            m.is_nmos ? opt.nmos_bulk : opt.pmos_bulk,
            m.is_nmos ? opt.nmos_model : opt.pmos_model, m.w, m.l);
    }
    for (const ExtractedCap& c : ex.caps) {
        ex.circuit.add_capacitor(c.name, ex.net_name(c.net_bottom),
                                 ex.net_name(c.net_top), c.value);
    }
    return ex;
}

netlist::CompareResult lvs(const Layout& lo, const Technology& tech,
                           const netlist::Circuit& schematic,
                           const ExtractOptions& opt) {
    Extraction ex = extract(lo, tech, opt);
    // Strip off-chip sources from the golden schematic.
    netlist::Circuit golden;
    golden.title = schematic.title;
    golden.models = schematic.models;
    for (const netlist::Device& d : schematic.devices) {
        if (d.kind == netlist::DeviceKind::VSource ||
            d.kind == netlist::DeviceKind::ISource)
            continue;
        golden.add(d);
    }
    return netlist::compare_netlists(golden, ex.circuit, 1e-2);
}

} // namespace catlift::extract
