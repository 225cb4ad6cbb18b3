#include "lift/extract_faults.h"

#include "geom/spatial_index.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>

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

/// An edge of the fragment graph seen from one of its fragments.  Edge ids
/// number the extractor's same-layer touching pairs first, then its cut
/// clusters.
struct Incidence {
    std::size_t other;  ///< the fragment at the far end
    std::size_t edge;   ///< edge id
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

/// A run [lo, hi) of DFS preorder positions.
struct Span {
    std::size_t lo, hi;
};

/// Everything the open/split analysis needs about the extracted circuit,
/// built once: each fragment's incident edges, anchored terminals and port
/// labels, and one Hopcroft-Tarjan depth-first search over the fragment
/// graph.  Preorder numbers every DFS subtree as one contiguous span, so
/// the terminal count and port count of a subtree, or of a tree minus some
/// subtrees, are prefix-sum differences, and the terminals themselves are
/// read off anchors stored in preorder.  A net is one or more DFS trees
/// (a cluster's later cuts add no edge), and no edge leaves a net.
class NetGraph {
public:
    NetGraph(const Extraction& e, const layout::Layout& lo)
        : ex_(e), n_touch_(e.touching.size()),
          port_(e.fragments.size(), 0) {
        const std::size_t n = e.fragments.size();
        // Edge order: same-layer touches by (a, b), then cut clusters.
        std::vector<std::pair<std::size_t, Incidence>> ends;
        auto add = [&](std::size_t a, std::size_t b) {
            const std::size_t edge = ends.size() / 2;
            ends.push_back({a, Incidence{b, edge}});
            ends.push_back({b, Incidence{a, edge}});
        };
        for (const auto& [a, b] : e.touching) add(a, b);
        for (const CutCluster& cc : e.cuts) add(cc.frag_a, cc.frag_b);
        incident_ = PerFragment<Incidence>(n, ends);

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
        anchors_ = PerFragment<Anchor>(n, anchors);
        // Rank every anchor in TerminalRef order (device, then terminal).
        by_rank_.reserve(anchors_.items.size());
        for (const Anchor& a : anchors_.items) by_rank_.push_back(&a);
        std::sort(by_rank_.begin(), by_rank_.end(),
                  [&](const Anchor* x, const Anchor* y) {
                      return std::tie(device(*x), x->terminal) <
                             std::tie(device(*y), y->terminal);
                  });
        rank_.resize(by_rank_.size());
        tokens_.reserve(by_rank_.size());
        for (std::uint32_t r = 0; r < by_rank_.size(); ++r) {
            rank_[static_cast<std::size_t>(by_rank_[r] -
                                           anchors_.items.data())] = r;
            tokens_.push_back(device(*by_rank_[r]) + ":" +
                              std::to_string(by_rank_[r]->terminal));
        }

        // Every fragment containing a label's point lies on the label's
        // layer and touches the naming fragment, so only that fragment and
        // its neighbours are searched.
        std::vector<std::pair<std::size_t, std::size_t>> on_label;
        for (std::size_t l = 0; l < lo.labels.size(); ++l) {
            const layout::Label& lb = lo.labels[l];
            const std::size_t named = e.label_fragments[l];
            port_[named] = 1;
            auto on = [&](std::size_t f) {
                if (e.fragments[f].layer == lb.layer &&
                    e.fragments[f].rect.contains(lb.at))
                    on_label.emplace_back(f, l);
            };
            on(named);
            for (const Incidence& in : incident(named)) on(in.other);
        }
        labels_ = PerFragment<std::size_t>(n, on_label);

        search(n);
    }

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
    /// Cut cluster of an edge, or kNone for a same-layer touch.
    std::size_t cluster(std::size_t edge) const {
        return edge < n_touch_ ? kNone : edge - n_touch_;
    }
    std::size_t cluster_edge(std::size_t cluster) const {
        return n_touch_ + cluster;
    }

    const std::string& device(const Anchor& a) const {
        return a.cap ? ex_.caps[a.device].name : ex_.mosfets[a.device].name;
    }
    TerminalRef terminal(const Anchor& a) const {
        return TerminalRef{device(a), a.terminal};
    }
    /// Rank of an anchor among all anchors in TerminalRef order, so that
    /// sorting ranks sorts terminals; every anchor is a distinct terminal
    /// (device names are unique).
    std::uint32_t rank(const Anchor& a) const {
        return rank_[static_cast<std::size_t>(&a - anchors_.items.data())];
    }
    const Anchor& ranked(std::uint32_t r) const { return *by_rank_[r]; }
    /// "device:terminal", as fault keys spell a terminal.
    const std::string& token(std::uint32_t r) const { return tokens_[r]; }

    // ---- The DFS forest ----
    std::size_t pre(std::size_t frag) const { return pre_[frag]; }
    /// Lowest preorder position reachable from `frag`'s subtree by one
    /// edge other than the tree edge into `frag`.
    std::size_t low(std::size_t frag) const { return low_[frag]; }
    /// The tree edge that discovered `frag`, kNone for a root.
    std::size_t parent_edge(std::size_t frag) const {
        return parent_edge_[frag];
    }
    Span subtree(std::size_t frag) const {
        return {pre_[frag], pre_[frag] + size_[frag]};
    }
    Span tree(std::size_t frag) const { return subtree(root_[frag]); }
    /// The fragment at preorder position k.
    std::size_t at(std::size_t k) const { return order_[k]; }

    std::size_t terms_in(Span s) const {
        return term_at_[s.hi] - term_at_[s.lo];
    }
    std::size_t ports_in(Span s) const {
        return port_at_[s.hi] - port_at_[s.lo];
    }
    /// Appends the ranks of the terminals in a span.
    void append_terms(Span s, std::vector<std::uint32_t>& out) const {
        out.insert(out.end(), pre_ranks_.begin() + term_at_[s.lo],
                   pre_ranks_.begin() + term_at_[s.hi]);
    }

private:
    /// Iterative Hopcroft-Tarjan DFS from each unvisited fragment in index
    /// order.  Only the edge id that discovered a fragment is skipped when
    /// looking back, so a parallel edge to the parent is a back edge.
    void search(std::size_t n) {
        pre_.assign(n, kNone);
        low_.resize(n);
        size_.resize(n);
        root_.resize(n);
        parent_edge_.assign(n, kNone);
        order_.reserve(n);
        std::vector<std::pair<std::size_t, std::size_t>> stack;  // (f, next)
        for (std::size_t r = 0; r < n; ++r) {
            if (pre_[r] != kNone) continue;
            auto discover = [&](std::size_t f, std::size_t via) {
                pre_[f] = low_[f] = order_.size();
                order_.push_back(f);
                root_[f] = r;
                parent_edge_[f] = via;
                stack.emplace_back(f, 0);
            };
            discover(r, kNone);
            while (!stack.empty()) {
                const std::size_t f = stack.back().first;
                const auto inc = incident(f);
                if (stack.back().second < inc.size()) {
                    const Incidence& in = inc[stack.back().second++];
                    if (in.edge == parent_edge_[f]) continue;
                    if (pre_[in.other] == kNone)
                        discover(in.other, in.edge);
                    else
                        low_[f] = std::min(low_[f], pre_[in.other]);
                    continue;
                }
                size_[f] = order_.size() - pre_[f];
                stack.pop_back();
                if (!stack.empty()) {
                    std::size_t& up = low_[stack.back().first];
                    up = std::min(up, low_[f]);
                }
            }
        }
        term_at_.assign(n + 1, 0);
        port_at_.assign(n + 1, 0);
        for (std::size_t k = 0; k < n; ++k) {
            term_at_[k + 1] = term_at_[k] + anchors(order_[k]).size();
            port_at_[k + 1] = port_at_[k] + port_[order_[k]];
        }
        pre_ranks_.reserve(term_at_[n]);
        for (std::size_t f : order_)
            for (const Anchor& a : anchors(f)) pre_ranks_.push_back(rank(a));
    }

    const Extraction& ex_;
    std::size_t n_touch_;
    std::vector<char> port_;  // fragment names a net
    PerFragment<Incidence> incident_;
    PerFragment<Anchor> anchors_;
    PerFragment<std::size_t> labels_;
    std::vector<const Anchor*> by_rank_;  // rank -> anchor
    std::vector<std::uint32_t> rank_;     // anchors_.items index -> rank
    std::vector<std::string> tokens_;     // rank -> "device:terminal"

    std::vector<std::size_t> pre_, low_, size_, root_, parent_edge_;
    std::vector<std::size_t> order_;             // preorder -> fragment
    std::vector<std::size_t> term_at_, port_at_; // prefix sums in preorder
    std::vector<std::uint32_t> pre_ranks_;       // anchor ranks in preorder
};

/// The components a removed fragment f leaves among its neighbours.  A DFS
/// child c of f with low(c) >= pre(f) is cut off with its subtree; every
/// other neighbour lies in "the rest": f's tree minus f and those subtrees.
/// The rest is component 0 (empty when f is a root); cut-off children are
/// 1, 2, ... in preorder.  The rest's terminals are kept as the spans that
/// hold any, so gathering them costs no more than the terminals.
class Removal {
public:
    void reset(const NetGraph& g, std::size_t f) {
        g_ = &g;
        const Span self = g.subtree(f), tree = g.tree(f);
        const Span own{self.lo, self.lo + 1};
        self_ = self;
        children_.clear();
        child_comp_.clear();
        rest_.clear();
        comps_.assign(1, Comp{g.terms_in(tree) - g.terms_in(own),
                              g.ports_in(tree) - g.ports_in(own), {}});
        auto to_rest = [&](Span s) {
            if (g.terms_in(s) == 0) return;
            if (!rest_.empty() && rest_.back().hi == s.lo)
                rest_.back().hi = s.hi;
            else
                rest_.push_back(s);
        };
        to_rest({tree.lo, self.lo});
        for (std::size_t k = self.lo + 1; k < self.hi;) {
            const Span sub = g.subtree(g.at(k));
            children_.push_back(sub);
            if (g.low(g.at(k)) >= self.lo) {
                child_comp_.push_back(comps_.size());
                comps_.push_back(Comp{g.terms_in(sub), g.ports_in(sub), sub});
                comps_[0].terms -= comps_.back().terms;
                comps_[0].ports -= comps_.back().ports;
            } else {
                child_comp_.push_back(0);
                to_rest(sub);
            }
            k = sub.hi;
        }
        to_rest({self.hi, tree.hi});
    }

    std::size_t size() const { return comps_.size(); }
    std::size_t terms(std::size_t comp) const { return comps_[comp].terms; }
    std::size_t ports(std::size_t comp) const { return comps_[comp].ports; }

    /// Component of a neighbour `w` of f: the child subtree holding it is
    /// the last one starting at or before pre(w).
    std::size_t comp_of(std::size_t w) const {
        const std::size_t p = g_->pre(w);
        if (p < self_.lo || p >= self_.hi) return 0;
        const auto it = std::upper_bound(
            children_.begin(), children_.end(), p,
            [](std::size_t v, const Span& s) { return v < s.lo; });
        return child_comp_[static_cast<std::size_t>(it - children_.begin()) -
                           1];
    }

    void append_terms(std::size_t comp,
                      std::vector<std::uint32_t>& out) const {
        if (comp != 0) {
            g_->append_terms(comps_[comp].sub, out);
            return;
        }
        for (const Span& s : rest_) g_->append_terms(s, out);
    }

private:
    struct Comp {
        std::size_t terms, ports;
        Span sub;  ///< the cut-off subtree (unused for the rest)
    };
    const NetGraph* g_ = nullptr;
    Span self_{};
    std::vector<Span> children_;           // subtree of each DFS child
    std::vector<std::size_t> child_comp_;  // its component (0: the rest)
    std::vector<Span> rest_;               // the rest's spans with terminals
    std::vector<Comp> comps_;
};

/// Attachment of something to a fragment, projected on its long axis.
struct Attachment {
    Coord lo, hi;  ///< interval along the long axis
    enum class Kind { Frag, Terminal, Port } kind;
    /// Kind::Frag: the attached fragment, then its Removal component;
    /// Kind::Terminal: the index into the fragment's anchors.
    std::size_t ref = 0;
};

/// Critical-area integral memo key: the site class, the mechanism and the
/// two integer dimensions [nm] the integral is taken over.
struct AreaKey {
    int site;
    const Mechanism* mech;
    Coord a, b;
    friend bool operator==(const AreaKey&, const AreaKey&) = default;
};
struct AreaKeyHash {
    std::size_t operator()(const AreaKey& k) const {
        std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.mech) ^
                          static_cast<std::uint64_t>(k.site);
        for (Coord v : {k.a, k.b})
            h = (h ^ static_cast<std::uint64_t>(v)) * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h ^ (h >> 29));
    }
};

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

    // Critical-area integrals memoized by (site class, mechanism, two
    // integer dimensions): thousands of sites share a few hundred
    // geometries, and a hit returns the very double the first one computed,
    // so every probability sum below is unchanged.
    enum Site { kBridge, kLine, kCut };
    std::unordered_map<AreaKey, double, AreaKeyHash> areas;
    auto probability = [&](Site site, const Mechanism& m, Coord a, Coord b) {
        const auto [it, fresh] = areas.try_emplace(AreaKey{site, &m, a, b});
        if (fresh) {
            const auto x = static_cast<double>(a), y = static_cast<double>(b);
            it->second = site == kBridge ? model.bridge_probability(m, x, y)
                         : site == kLine ? model.open_probability(m, x, y)
                                         : model.cut_probability(m, x, y);
        }
        return it->second;
    };

    // Faults merged by electrical signature, keyed by kind and the bridged
    // nets, or the net and the terminals moved, or the stuck-open victim.
    // The mechanism is deliberately NOT part of the key: a metal1 bridge
    // and a metal2 bridge between the same two nets are one electrical
    // fault for AnaFAULT; the merged fault is labelled with the mechanism
    // contributing the most probability.  An open keeps its terminal
    // ranks; only a fault that survives the threshold spells them out.
    struct Merged {
        Fault fault;
        std::vector<std::uint32_t> group;       // opens: ranks of group_b
        std::map<std::string, double> by_mech;  // contributions
    };
    std::map<std::string, Merged> merged;
    // Adds a site's probability to its key's entry; a new entry is
    // returned for the caller to describe, else null.
    auto accumulate = [&](std::string key, const Mechanism& mech,
                          double p) -> Merged* {
        const auto [it, fresh] = merged.try_emplace(std::move(key));
        Merged& m = it->second;
        m.by_mech[mech.name] += p;
        if (!fresh) {
            m.fault.probability += p;
            return nullptr;
        }
        m.fault.probability = p;
        return &m;
    };

    // Emit an open of `net` that separates the terminals (and ports) of
    // side A from those of side B, given by their terminal counts (every
    // anchor is a distinct TerminalRef) and port flags.  An open leaving
    // either side with nothing attached is dangling and only counted.
    // Side B -- the group the injection renames -- is the side away from
    // the ports (sources and observation points keep the original node
    // name), else the smaller one; only its terminal ranks are gathered,
    // by `side_terms(true)` for side B or `side_terms(false)` for side A.
    // One MOS terminal is a transistor stuck-open regardless of whether
    // the failing site was a contact cluster or a line span.
    auto emit_open = [&](const Mechanism& mech, int net, std::size_t n_a,
                         std::size_t n_b, bool port_a, bool port_b,
                         double probability, auto&& side_terms) {
        if ((n_a == 0 && !port_a) || (n_b == 0 && !port_b)) {
            ++res.stats.dangling_opens;
            return;
        }
        const bool swap =
            (port_b && !port_a) || (port_a == port_b && n_b > n_a);
        if ((swap ? n_a : n_b) == 0) {
            ++res.stats.dangling_opens;
            return;
        }
        std::vector<std::uint32_t> group = side_terms(!swap);
        sort_unique(group);
        const FaultKind kind = group.size() > 1 ? FaultKind::SplitNode
                               : graph.ranked(group[0]).cap
                                   ? FaultKind::LineOpen
                                   : FaultKind::StuckOpen;
        std::string key = std::string(to_string(kind)) + "|";
        if (kind == FaultKind::StuckOpen) {
            key += graph.token(group[0]);
        } else {
            (key += ex.net_name(net)) += '[';
            for (std::uint32_t r : group) (key += graph.token(r)) += ',';
            key += ']';
        }
        if (Merged* m = accumulate(std::move(key), mech, probability)) {
            m->fault.kind = kind;
            m->fault.net = ex.net_name(net);
            m->group = std::move(group);
        }
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
                const std::string* a = &ex.net_name(fa.net);
                const std::string* b = &ex.net_name(fb.net);
                if (*a > *b) std::swap(a, b);
                const FaultKind kind = short_kind(*a, *b);
                if (Merged* m = accumulate(
                        std::string(to_string(kind)) + "|" + *a + ">" + *b,
                        *mech, probability(kBridge, *mech, facing, spacing))) {
                    m->fault.kind = kind;
                    m->fault.net_a = *a;
                    m->fault.net_b = *b;
                }
            }
        }
    }

    // ---- Line opens / split nodes ---------------------------------------
    std::vector<Attachment> att;
    Removal removal;
    std::vector<std::size_t> on_a, on_b, gathered;
    std::size_t builds = 0;
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
        att.clear();
        for (const Incidence& in : graph.incident(fi)) {
            const std::size_t cluster = graph.cluster(in.edge);
            const Rect& where = cluster != kNone ? ex.cuts[cluster].bbox
                                                 : ex.fragments[in.other].rect;
            auto [lo_p, hi_p] = project(where);
            if (lo_p > hi_p) std::swap(lo_p, hi_p);
            att.push_back({lo_p, hi_p, Attachment::Kind::Frag, in.other});
        }
        const auto anchors = graph.anchors(fi);
        for (std::size_t k = 0; k < anchors.size(); ++k) {
            // A MOSFET terminal sits at the gate position; a capacitor plate
            // is anchored over the whole fragment so the plate body never
            // ends up "cut off" from itself.
            const Anchor& an = anchors[k];
            const auto [lo_p, hi_p] =
                project(an.cap ? f.rect : ex.mosfets[an.device].gate);
            att.push_back({lo_p, hi_p, Attachment::Kind::Terminal, k});
        }
        if (graph.is_port(fi)) {
            for (std::size_t l : graph.labels(fi)) {
                const Coord p = along_x ? lo.labels[l].at.x : lo.labels[l].at.y;
                att.push_back({p, p, Attachment::Kind::Port});
            }
        }
        if (att.size() < 2) continue;
        std::sort(att.begin(), att.end(),
                  [](const Attachment& a, const Attachment& b) {
                      return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
                  });
        bool any_gap = false;
        Coord covered_hi = att.front().hi;
        for (std::size_t i = 0; i + 1 < att.size() && !any_gap; ++i) {
            covered_hi = std::max(covered_hi, att[i].hi);
            any_gap = att[i + 1].lo > covered_hi;
        }
        if (!any_gap) continue;

        // Examine each free span between consecutive attachments: the ones
        // up to the span are side A, the rest side B.  All start on side B
        // and move to side A one by one, with per-component attachment
        // counts on each side; a component attached on both sides bypasses
        // the cut.  Side totals count a component once.
        removal.reset(graph, fi);
        on_a.assign(removal.size(), 0);
        on_b.assign(removal.size(), 0);
        gathered.assign(removal.size(), 0);
        std::size_t both = 0, n_a = 0, n_b = 0, ports_a = 0, ports_b = 0;
        for (Attachment& a : att) {
            switch (a.kind) {
                case Attachment::Kind::Frag:
                    a.ref = removal.comp_of(a.ref);
                    if (on_b[a.ref]++ == 0) {
                        n_b += removal.terms(a.ref);
                        ports_b += removal.ports(a.ref);
                    }
                    break;
                case Attachment::Kind::Terminal: ++n_b; break;
                case Attachment::Kind::Port: ++ports_b; break;
            }
        }
        covered_hi = att.front().hi;
        for (std::size_t i = 0; i + 1 < att.size(); ++i) {
            const Attachment& moved = att[i];
            switch (moved.kind) {
                case Attachment::Kind::Frag: {
                    const std::size_t c = moved.ref;
                    const bool first_on_a = on_a[c]++ == 0;
                    const bool last_on_b = --on_b[c] == 0;
                    if (first_on_a) {
                        n_a += removal.terms(c);
                        ports_a += removal.ports(c);
                        if (!last_on_b) ++both;
                    }
                    if (last_on_b) {
                        n_b -= removal.terms(c);
                        ports_b -= removal.ports(c);
                        if (!first_on_a) --both;
                    }
                    break;
                }
                case Attachment::Kind::Terminal: ++n_a, --n_b; break;
                case Attachment::Kind::Port: ++ports_a, --ports_b; break;
            }
            covered_hi = std::max(covered_hi, moved.hi);
            const Coord gap = att[i + 1].lo - covered_hi;
            if (gap <= 0) continue;
            ++res.stats.open_sites;
            if (both > 0) {
                ++res.stats.redundant_opens;
                continue;
            }
            auto side_terms = [&](bool side_b) {
                // Each component once: `gathered` holds the build that
                // last took it.
                ++builds;
                std::vector<std::uint32_t> out;
                for (std::size_t k = side_b ? i + 1 : 0,
                                 end = side_b ? att.size() : i + 1;
                     k < end; ++k) {
                    const std::size_t ref = att[k].ref;
                    if (att[k].kind == Attachment::Kind::Terminal) {
                        out.push_back(graph.rank(anchors[ref]));
                    } else if (att[k].kind == Attachment::Kind::Frag &&
                               gathered[ref] != builds) {
                        gathered[ref] = builds;
                        removal.append_terms(ref, out);
                    }
                }
                return out;
            };
            emit_open(*mech, f.net, n_a, n_b, ports_a > 0, ports_b > 0,
                      probability(kLine, *mech, gap, width), side_terms);
        }
    }

    // ---- Cut-cluster opens -----------------------------------------------
    // Removing a cluster's edge splits its net iff the edge is a DFS tree
    // edge whose child subtree reaches no higher by another edge, i.e.
    // low(child) > pre(parent).  The two sides are then the child's subtree
    // and the rest of its tree; side A holds frag_a.
    for (std::size_t ci = 0; ci < ex.cuts.size(); ++ci) {
        const CutCluster& cc = ex.cuts[ci];
        std::optional<Layer> lower;
        if (cc.layer == Layer::Contact)
            lower = ex.fragments[cc.frag_b].layer;
        const Mechanism* mech =
            stats.find(cc.layer, FailureMode::Open, lower);
        if (!mech) continue;
        ++res.stats.cut_sites;

        const std::size_t edge = graph.cluster_edge(ci);
        const bool a_below = graph.parent_edge(cc.frag_a) == edge;
        const std::size_t child = a_below ? cc.frag_a : cc.frag_b;
        const std::size_t parent = a_below ? cc.frag_b : cc.frag_a;
        if (graph.parent_edge(child) != edge ||
            graph.low(child) <= graph.pre(parent)) {
            ++res.stats.redundant_opens;
            continue;  // another path keeps the net together
        }
        const Span sub = graph.subtree(child), tree = graph.tree(child);
        const Span before{tree.lo, sub.lo}, after{sub.hi, tree.hi};
        const std::size_t n_sub = graph.terms_in(sub);
        const std::size_t n_rest = graph.terms_in(before) + graph.terms_in(after);
        const bool port_sub = graph.ports_in(sub) > 0;
        const bool port_rest =
            graph.ports_in(before) + graph.ports_in(after) > 0;
        auto side_terms = [&](bool side_b) {
            std::vector<std::uint32_t> out;
            if (side_b != a_below) {
                graph.append_terms(sub, out);
            } else {
                graph.append_terms(before, out);
                graph.append_terms(after, out);
            }
            return out;
        };
        emit_open(*mech, ex.fragments[cc.frag_a].net,
                  a_below ? n_sub : n_rest, a_below ? n_rest : n_sub,
                  a_below ? port_sub : port_rest,
                  a_below ? port_rest : port_sub,
                  probability(kCut, *mech, cc.bbox.width(), cc.bbox.height()),
                  side_terms);
    }

    // ---- Threshold, label, rank -------------------------------------------
    res.faults.circuit = lo.name;
    for (auto& [key, m] : merged) {
        Fault& f = m.fault;
        if (f.probability < opt.p_min) {
            ++res.stats.dropped;
            res.stats.dropped_probability += f.probability;
            continue;
        }
        // Label with the mechanism contributing the most probability.
        f.mechanism =
            std::max_element(m.by_mech.begin(), m.by_mech.end(),
                             [](const auto& a, const auto& b) {
                                 return a.second < b.second;
                             })
                ->first;
        for (std::uint32_t r : m.group)
            f.group_b.push_back(graph.terminal(graph.ranked(r)));
        if (f.kind == FaultKind::StuckOpen) f.victim = f.group_b[0];
        res.faults.faults.push_back(std::move(f));
    }
    res.faults.rank();
    return res;
}

} // namespace catlift::lift
