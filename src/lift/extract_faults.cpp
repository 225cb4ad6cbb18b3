#include "lift/extract_faults.h"

#include "geom/spatial_index.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>

namespace catlift::lift {

using defects::FailureMode;
using defects::Mechanism;
using extract::CutCluster;
using extract::Extraction;
using extract::Fragment;
using geom::Coord;
using geom::Rect;
using layout::Layer;

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

template <typename T>
void sort_unique(std::vector<T>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// True if two sorted ranges share an element.
bool intersects(const std::vector<std::size_t>& a,
                const std::vector<std::size_t>& b) {
    for (auto i = a.begin(), j = b.begin(); i != a.end() && j != b.end();) {
        if (*i == *j) return true;
        if (*i < *j)
            ++i;
        else
            ++j;
    }
    return false;
}

/// One edge of a net's connectivity graph, in net-local fragment indices.
struct NetEdge {
    std::size_t a, b;   ///< local indices of the joined fragments
    int cluster = -1;   ///< cut cluster index, -1 for same-layer touch
};

/// An edge seen from one of its fragments.
struct Incidence {
    std::size_t other;  ///< the fragment at the far end
    int cluster;        ///< as NetEdge::cluster
};

/// A device terminal anchored on a fragment.
struct Anchor {
    std::size_t device;  ///< index into Extraction::mosfets or ::caps
    bool cap;
    int terminal;
};

/// Per-fragment lists stored flat: the items of fragment f are
/// items[start[f] .. start[f + 1]), in the order they were added.
template <typename T>
struct PerFragment {
    std::vector<std::size_t> start;
    std::vector<T> items;

    PerFragment() = default;
    /// Counting sort of (fragment, item) pairs; keeps the pair order within
    /// each fragment.
    PerFragment(std::size_t n_frags,
                const std::vector<std::pair<std::size_t, T>>& pairs)
        : start(n_frags + 1, 0), items(pairs.size()) {
        for (const auto& p : pairs) ++start[p.first + 1];
        for (std::size_t f = 0; f < n_frags; ++f) start[f + 1] += start[f];
        std::vector<std::size_t> fill(start.begin(), start.end() - 1);
        for (const auto& p : pairs) items[fill[p.first]++] = p.second;
    }
    std::span<const T> of(std::size_t f) const {
        return {items.data() + start[f], start[f + 1] - start[f]};
    }
};

/// Everything the open/split analysis needs about the extracted circuit,
/// built once: per-net dense fragment indices and edge lists, and for each
/// fragment its incident edges, anchored terminals and port labels.
class NetGraph {
public:
    NetGraph(const Extraction& e, const layout::Layout& lo)
        : ex_(e), frags_(e.net_names.size()), local_(e.fragments.size()),
          edges_(e.net_names.size()), port_(e.fragments.size(), 0) {
        for (std::size_t i = 0; i < e.fragments.size(); ++i) {
            auto& fs = frags_[net_of(i)];
            local_[i] = fs.size();
            fs.push_back(i);
        }
        // Edge order: same-layer touches by (a, b), then cut clusters.
        std::vector<std::pair<std::size_t, Incidence>> ends;
        auto add = [&](std::size_t a, std::size_t b, int cluster) {
            edges_[net_of(a)].push_back(NetEdge{local_[a], local_[b], cluster});
            ends.push_back({a, Incidence{b, cluster}});
            ends.push_back({b, Incidence{a, cluster}});
        };
        for (const auto& [a, b] : e.touching) add(a, b, -1);
        for (std::size_t c = 0; c < e.cuts.size(); ++c)
            add(e.cuts[c].frag_a, e.cuts[c].frag_b, static_cast<int>(c));
        incident_ = PerFragment<Incidence>(e.fragments.size(), ends);

        std::vector<std::pair<std::size_t, Anchor>> anchors;
        for (std::size_t i = 0; i < e.mosfets.size(); ++i) {
            const auto& m = e.mosfets[i];
            anchors.push_back({m.frag_drain, Anchor{i, false, 0}});
            anchors.push_back({m.frag_gate, Anchor{i, false, 1}});
            anchors.push_back({m.frag_source, Anchor{i, false, 2}});
        }
        for (std::size_t i = 0; i < e.caps.size(); ++i) {
            anchors.push_back({e.caps[i].frag_bottom, Anchor{i, true, 0}});
            anchors.push_back({e.caps[i].frag_top, Anchor{i, true, 1}});
        }
        anchors_ = PerFragment<Anchor>(e.fragments.size(), anchors);

        // Every fragment containing a label's point lies on the label's
        // layer and touches the naming fragment, so only that fragment's
        // net is searched.
        std::vector<std::pair<std::size_t, std::size_t>> on_label;
        for (std::size_t l = 0; l < lo.labels.size(); ++l) {
            const layout::Label& lb = lo.labels[l];
            port_[e.label_fragments[l]] = 1;
            for (std::size_t f : frags_[net_of(e.label_fragments[l])])
                if (e.fragments[f].layer == lb.layer &&
                    e.fragments[f].rect.contains(lb.at))
                    on_label.emplace_back(f, l);
        }
        labels_ = PerFragment<std::size_t>(e.fragments.size(), on_label);
    }

    std::size_t net_of(std::size_t frag) const {
        return static_cast<std::size_t>(ex_.fragments[frag].net);
    }
    std::size_t local(std::size_t frag) const { return local_[frag]; }
    /// The edges touching `frag`, in edge order.
    std::span<const Incidence> incident(std::size_t frag) const {
        return incident_.of(frag);
    }
    /// Terminals anchored on `frag`: MOSFETs in extraction order, then caps.
    std::span<const Anchor> anchors(std::size_t frag) const {
        return anchors_.of(frag);
    }
    /// Labels whose point lies on `frag`, in label order.
    std::span<const std::size_t> labels(std::size_t frag) const {
        return labels_.of(frag);
    }
    /// True if `frag` is the fragment naming some label's net.
    bool is_port(std::size_t frag) const { return port_[frag] != 0; }

    TerminalRef terminal(const Anchor& a) const {
        return TerminalRef{a.cap ? ex_.caps[a.device].name
                                 : ex_.mosfets[a.device].name,
                           a.terminal};
    }

    /// Connected components of one net's fragments with the edges `skip`
    /// accepts removed, then the terminals and port flag of each component.
    /// comp_of() reads a fragment's component.
    template <typename Skip>
    void components(std::size_t net, Skip skip) {
        const std::size_t n = frags_[net].size();
        parent_.resize(n);
        for (std::size_t k = 0; k < n; ++k) parent_[k] = k;
        for (const NetEdge& ed : edges_[net])
            if (!skip(ed)) parent_[find(ed.a)] = find(ed.b);
        // Number the roots, then bucket terminals per component.
        root_comp_.assign(n, kNone);
        comp_.resize(n);
        std::size_t n_comps = 0;
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t& c = root_comp_[find(k)];
            if (c == kNone) c = n_comps++;
            comp_[k] = c;
        }
        comp_port_.assign(n_comps, 0);
        comp_term_start_.assign(n_comps + 1, 0);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t f = frags_[net][k];
            comp_term_start_[comp_[k] + 1] += anchors_.of(f).size();
            if (port_[f]) comp_port_[comp_[k]] = 1;
        }
        for (std::size_t c = 0; c < n_comps; ++c)
            comp_term_start_[c + 1] += comp_term_start_[c];
        comp_terms_.resize(comp_term_start_[n_comps]);
        fill_.assign(comp_term_start_.begin(), comp_term_start_.end() - 1);
        for (std::size_t k = 0; k < n; ++k)
            for (const Anchor& a : anchors_.of(frags_[net][k]))
                comp_terms_[fill_[comp_[k]]++] = &a;
    }
    std::size_t comp_of(std::size_t frag) const { return comp_[local_[frag]]; }

    /// Sorted, de-duplicated terminals of a set of components.
    std::vector<TerminalRef> terminals_in(
        const std::vector<std::size_t>& comps) const {
        std::vector<TerminalRef> out;
        for (std::size_t c : comps)
            for (std::size_t t = comp_term_start_[c];
                 t < comp_term_start_[c + 1]; ++t)
                out.push_back(terminal(*comp_terms_[t]));
        sort_unique(out);
        return out;
    }

    bool ports_in(const std::vector<std::size_t>& comps) const {
        for (std::size_t c : comps)
            if (comp_port_[c]) return true;
        return false;
    }

private:
    std::size_t find(std::size_t x) {
        while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
        return x;
    }

    const Extraction& ex_;
    std::vector<std::vector<std::size_t>> frags_;  // net -> fragments
    std::vector<std::size_t> local_;               // fragment -> local index
    std::vector<std::vector<NetEdge>> edges_;      // net -> edges
    std::vector<char> port_;                       // fragment names a net
    PerFragment<Incidence> incident_;
    PerFragment<Anchor> anchors_;
    PerFragment<std::size_t> labels_;

    // Buffers reused by components().
    std::vector<std::size_t> parent_, root_comp_, comp_, comp_term_start_,
        fill_;
    std::vector<char> comp_port_;
    std::vector<const Anchor*> comp_terms_;
};

/// Attachment of something to a fragment, projected on its long axis.
struct Attachment {
    Coord lo, hi;  ///< interval along the long axis
    enum class Kind { Frag, Terminal, Port } kind;
    std::size_t frag = 0;   // Kind::Frag: the attached fragment
    TerminalRef term;       // Kind::Terminal
};

/// Merge-key for faults with identical electrical signature.  The
/// mechanism is deliberately NOT part of the key: a metal1 bridge and a
/// metal2 bridge between the same two nets are one electrical fault for
/// AnaFAULT; the merged fault carries the mechanism contributing the most
/// probability as its label.
std::string fault_key(const Fault& f) {
    std::string k = std::string(to_string(f.kind)) + "|";
    switch (f.kind) {
        case FaultKind::LocalShort:
        case FaultKind::GlobalShort: {
            const auto& lo = std::min(f.net_a, f.net_b);
            const auto& hi = std::max(f.net_a, f.net_b);
            k += lo + ">" + hi;
            break;
        }
        case FaultKind::LineOpen:
        case FaultKind::SplitNode: {
            k += f.net + "[";
            for (const TerminalRef& t : f.group_b)
                k += t.device + ":" + std::to_string(t.terminal) + ",";
            k += "]";
            break;
        }
        case FaultKind::StuckOpen:
            k += f.victim.device + ":" + std::to_string(f.victim.terminal);
            break;
    }
    return k;
}

} // namespace

LiftResult extract_faults(const layout::Layout& lo,
                          const layout::Technology& tech,
                          const LiftOptions& opt) {
    LiftResult res;
    res.extraction = extract::extract(lo, tech, opt.extract_opt);
    const Extraction& ex = res.extraction;
    const defects::DefectModel& model = opt.model;
    const defects::DefectStatistics& stats = model.stats();
    const auto xmax = static_cast<Coord>(model.max_defect());

    NetGraph graph(ex, lo);
    std::map<std::string, Fault> merged;  // key -> accumulated fault
    // Per-mechanism contributions of each merged fault; the dominant one
    // becomes the fault's mechanism label.
    std::map<std::string, std::map<std::string, double>> contrib;

    auto accumulate = [&](Fault f) {
        const std::string key = fault_key(f);
        contrib[key][f.mechanism] += f.probability;
        auto it = merged.find(key);
        if (it == merged.end())
            merged.emplace(key, std::move(f));
        else
            it->second.probability += f.probability;
    };

    // Classify an open by the terminals it isolates: one MOS terminal is a
    // transistor stuck-open regardless of whether the failing site was a
    // contact cluster or a line span.
    std::set<std::string> mos_names;
    for (const auto& m : ex.mosfets) mos_names.insert(m.name);
    auto classify_open = [&](Fault& f) {
        if (f.group_b.size() == 1) {
            if (mos_names.count(f.group_b[0].device)) {
                f.kind = FaultKind::StuckOpen;
                f.victim = f.group_b[0];
            } else {
                f.kind = FaultKind::LineOpen;
            }
        } else {
            f.kind = FaultKind::SplitNode;
        }
    };

    // Emit an open of `net` that separates the terminals (and ports) of
    // side A from those of side B.  An open leaving either side with
    // nothing attached is dangling and only counted.  Side B -- the group
    // the injection renames -- is the side away from the ports (sources
    // and observation points keep the original node name), else the
    // smaller one.
    auto emit_open = [&](const Mechanism& mech, int net,
                         std::vector<TerminalRef> term_a,
                         std::vector<TerminalRef> term_b, bool port_a,
                         bool port_b, double probability) {
        if ((term_a.empty() && !port_a) || (term_b.empty() && !port_b)) {
            ++res.stats.dangling_opens;
            return;
        }
        if (port_b && !port_a) {
            std::swap(term_a, term_b);
            std::swap(port_a, port_b);
        } else if (port_a == port_b && term_b.size() > term_a.size()) {
            std::swap(term_a, term_b);
        }
        if (term_b.empty()) {
            ++res.stats.dangling_opens;
            return;
        }
        sort_unique(term_b);

        Fault flt;
        flt.mechanism = mech.name;
        flt.net = ex.net_name(net);
        flt.group_b = std::move(term_b);
        classify_open(flt);
        flt.probability = probability;
        accumulate(std::move(flt));
    };

    // Net pairs (a <= b) that share a device, for the short fallback.
    std::set<std::pair<std::string, std::string>> device_pairs;
    if (opt.net_blocks.empty()) {
        for (const auto& d : ex.circuit.devices)
            for (const std::string& a : d.nodes)
                for (const std::string& b : d.nodes)
                    if (a <= b) device_pairs.emplace(a, b);
    }

    // Classification helper for shorts (a <= b).
    auto short_kind = [&](const std::string& a, const std::string& b) {
        if (!opt.net_blocks.empty()) {
            auto ba = opt.net_blocks.find(a);
            auto bb = opt.net_blocks.find(b);
            const std::string block_a =
                ba == opt.net_blocks.end() ? "?" : ba->second;
            const std::string block_b =
                bb == opt.net_blocks.end() ? "?" : bb->second;
            if (block_a == "supply" || block_b == "supply")
                return FaultKind::GlobalShort;
            return block_a == block_b ? FaultKind::LocalShort
                                      : FaultKind::GlobalShort;
        }
        // Fallback: a bridge is local iff the nets share a device.
        return device_pairs.count({a, b}) ? FaultKind::LocalShort
                                          : FaultKind::GlobalShort;
    };

    // ---- Bridges -------------------------------------------------------
    std::array<std::vector<std::size_t>, layout::kLayerCount> by_layer;
    for (std::size_t i = 0; i < ex.fragments.size(); ++i)
        by_layer[static_cast<std::size_t>(ex.fragments[i].layer)].push_back(i);
    for (std::size_t li = 0; li < layout::kLayerCount; ++li) {
        const Layer layer = static_cast<Layer>(li);
        const Mechanism* mech = stats.find(layer, FailureMode::Short);
        if (!mech) continue;
        const std::vector<std::size_t>& ids = by_layer[li];
        geom::SpatialIndex idx(std::max<Coord>(xmax, 1000));
        for (std::size_t i : ids) idx.insert(i, ex.fragments[i].rect);
        for (std::size_t i : ids) {
            const Fragment& fa = ex.fragments[i];
            for (std::size_t j : idx.neighbours(fa.rect, xmax)) {
                if (j <= i) continue;
                const Fragment& fb = ex.fragments[j];
                if (fb.net == fa.net) continue;
                const geom::Point gaps = geom::axis_gaps(fa.rect, fb.rect);
                if (gaps.x > 0 && gaps.y > 0) continue;  // diagonal
                const Coord spacing = std::max(gaps.x, gaps.y);
                if (spacing <= 0 || spacing >= xmax) continue;
                const Coord facing = gaps.x > 0
                                         ? geom::y_overlap(fa.rect, fb.rect)
                                         : geom::x_overlap(fa.rect, fb.rect);
                if (facing <= 0) continue;
                ++res.stats.bridge_sites;
                Fault f;
                f.mechanism = mech->name;
                f.net_a = ex.net_name(fa.net);
                f.net_b = ex.net_name(fb.net);
                if (f.net_a > f.net_b) std::swap(f.net_a, f.net_b);
                f.kind = short_kind(f.net_a, f.net_b);
                f.probability = model.bridge_probability(
                    *mech, static_cast<double>(facing),
                    static_cast<double>(spacing));
                accumulate(std::move(f));
            }
        }
    }

    // ---- Line opens / split nodes ---------------------------------------
    for (std::size_t fi = 0; fi < ex.fragments.size(); ++fi) {
        const Fragment& f = ex.fragments[fi];
        const Mechanism* mech = stats.find(f.layer, FailureMode::Open);
        if (!mech) continue;

        // Long axis of the fragment.
        const bool along_x = f.rect.width() >= f.rect.height();
        const Coord width = along_x ? f.rect.height() : f.rect.width();
        auto project = [&](const Rect& r) -> std::pair<Coord, Coord> {
            if (along_x)
                return {std::max(r.lo.x, f.rect.lo.x),
                        std::min(r.hi.x, f.rect.hi.x)};
            return {std::max(r.lo.y, f.rect.lo.y),
                    std::min(r.hi.y, f.rect.hi.y)};
        };

        // Collect attachments: the fragment's own edges, anchored
        // terminals and port labels.
        std::vector<Attachment> att;
        for (const Incidence& in : graph.incident(fi)) {
            const Rect& where =
                in.cluster >= 0
                    ? ex.cuts[static_cast<std::size_t>(in.cluster)].bbox
                    : ex.fragments[in.other].rect;
            auto [lo_p, hi_p] = project(where);
            if (lo_p > hi_p) std::swap(lo_p, hi_p);
            att.push_back({lo_p, hi_p, Attachment::Kind::Frag, in.other,
                           TerminalRef{}});
        }
        for (const Anchor& an : graph.anchors(fi)) {
            // A MOSFET terminal sits at the gate position; a capacitor plate
            // is anchored over the whole fragment so the plate body never
            // ends up "cut off" from itself.
            const auto [lo_p, hi_p] =
                project(an.cap ? f.rect : ex.mosfets[an.device].gate);
            att.push_back({lo_p, hi_p, Attachment::Kind::Terminal, 0,
                           graph.terminal(an)});
        }
        if (graph.is_port(fi)) {
            for (std::size_t l : graph.labels(fi)) {
                const Coord p = along_x ? lo.labels[l].at.x : lo.labels[l].at.y;
                att.push_back({p, p, Attachment::Kind::Port, 0, TerminalRef{}});
            }
        }
        if (att.size() < 2) continue;
        std::sort(att.begin(), att.end(),
                  [](const Attachment& a, const Attachment& b) {
                      return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
                  });

        // Examine each free span between consecutive attachments.  The
        // components of the net without this fragment are computed at the
        // first span; the fragment itself is then isolated, so its own
        // component is on neither side.
        const std::size_t self = graph.local(fi);
        bool split = false;
        Coord covered_hi = att.front().hi;
        for (std::size_t i = 0; i + 1 < att.size(); ++i) {
            covered_hi = std::max(covered_hi, att[i].hi);
            const Coord gap = att[i + 1].lo - covered_hi;
            if (gap <= 0) continue;
            ++res.stats.open_sites;
            if (!split) {
                graph.components(graph.net_of(fi), [&](const NetEdge& ed) {
                    return ed.a == self || ed.b == self;
                });
                split = true;
            }

            // Side assignment by sort order.
            std::vector<std::size_t> comps_a, comps_b;
            std::vector<TerminalRef> term_a, term_b;
            bool port_a = false, port_b = false;
            for (std::size_t k = 0; k < att.size(); ++k) {
                const bool side_a = k <= i;
                const Attachment& a = att[k];
                switch (a.kind) {
                    case Attachment::Kind::Frag:
                        (side_a ? comps_a : comps_b)
                            .push_back(graph.comp_of(a.frag));
                        break;
                    case Attachment::Kind::Terminal:
                        (side_a ? term_a : term_b).push_back(a.term);
                        break;
                    case Attachment::Kind::Port:
                        (side_a ? port_a : port_b) = true;
                        break;
                }
            }
            sort_unique(comps_a);
            sort_unique(comps_b);
            // A component attached on both sides bypasses the cut.
            if (intersects(comps_a, comps_b)) {
                ++res.stats.redundant_opens;
                continue;
            }
            auto ta = graph.terminals_in(comps_a);
            auto tb = graph.terminals_in(comps_b);
            term_a.insert(term_a.end(), ta.begin(), ta.end());
            term_b.insert(term_b.end(), tb.begin(), tb.end());
            emit_open(*mech, f.net, std::move(term_a), std::move(term_b),
                      port_a || graph.ports_in(comps_a),
                      port_b || graph.ports_in(comps_b),
                      model.open_probability(*mech, static_cast<double>(gap),
                                             static_cast<double>(width)));
        }
    }

    // ---- Cut-cluster opens -----------------------------------------------
    for (std::size_t ci = 0; ci < ex.cuts.size(); ++ci) {
        const CutCluster& cc = ex.cuts[ci];
        std::optional<Layer> lower;
        if (cc.layer == Layer::Contact)
            lower = ex.fragments[cc.frag_b].layer;
        const Mechanism* mech =
            stats.find(cc.layer, FailureMode::Open, lower);
        if (!mech) continue;
        ++res.stats.cut_sites;

        const std::size_t net = graph.net_of(cc.frag_a);
        graph.components(net, [&](const NetEdge& ed) {
            return ed.cluster == static_cast<int>(ci);
        });
        const std::vector<std::size_t> comps_a{graph.comp_of(cc.frag_a)};
        const std::vector<std::size_t> comps_b{graph.comp_of(cc.frag_b)};
        if (comps_a == comps_b) {
            ++res.stats.redundant_opens;
            continue;  // another path keeps the net together
        }
        emit_open(*mech, static_cast<int>(net), graph.terminals_in(comps_a),
                  graph.terminals_in(comps_b), graph.ports_in(comps_a),
                  graph.ports_in(comps_b),
                  model.cut_probability(
                      *mech, static_cast<double>(cc.bbox.width()),
                      static_cast<double>(cc.bbox.height())));
    }

    // ---- Threshold, label, rank -------------------------------------------
    res.faults.circuit = lo.name;
    for (auto& [key, f] : merged) {
        if (f.probability < opt.p_min) {
            ++res.stats.dropped;
            res.stats.dropped_probability += f.probability;
            continue;
        }
        // Label with the mechanism contributing the most probability.
        const auto& by_mech = contrib.at(key);
        f.mechanism =
            std::max_element(by_mech.begin(), by_mech.end(),
                             [](const auto& a, const auto& b) {
                                 return a.second < b.second;
                             })
                ->first;
        res.faults.faults.push_back(std::move(f));
    }
    res.faults.rank();
    return res;
}

} // namespace catlift::lift
