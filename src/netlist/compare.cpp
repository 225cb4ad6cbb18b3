#include "netlist/compare.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string_view>
#include <tuple>
#include <unordered_map>

namespace catlift::netlist {

namespace {

// Quantise a value to a tolerance bucket so nearly-equal values hash alike.
std::int64_t bucket(double v, double rel_tol) {
    if (v == 0.0) return 0;
    // log-scale buckets of width rel_tol
    const double lg = std::log(std::fabs(v));
    return static_cast<std::int64_t>(std::llround(lg / std::max(rel_tol, 1e-12)));
}

/// Static part of a device's class (everything except the nets it touches):
/// kind, MOS polarity, and the value buckets.
using Seed = std::tuple<DeviceKind, int, std::int64_t, std::int64_t>;

Seed device_seed(const Circuit& c, const Device& d, double tol) {
    switch (d.kind) {
        case DeviceKind::Resistor:
        case DeviceKind::Capacitor:
            return {d.kind, 0, bucket(d.value, tol), 0};
        case DeviceKind::Mosfet:
            return {d.kind, c.model_of(d).is_nmos ? 1 : 2, bucket(d.w, tol),
                    bucket(d.l, tol)};
        case DeviceKind::VSource:
        case DeviceKind::ISource:
            return {d.kind, 0, bucket(d.source.dc_value(), tol), 0};
    }
    return {d.kind, 0, 0, 0};
}

constexpr std::size_t kRoles = 3;

/// Terminal role (the edge label) honouring device symmetries: R/C
/// terminals are interchangeable, MOS drain/source are interchangeable,
/// source polarity matters.
std::uint8_t role(const Device& d, std::size_t term) {
    switch (d.kind) {
        case DeviceKind::Resistor:
        case DeviceKind::Capacitor: return 0;
        case DeviceKind::VSource:
        case DeviceKind::ISource: break;
        case DeviceKind::Mosfet:
            if (term == Device::kGate) return 1;
            if (term == Device::kBulk) return 2;
            return 0;
    }
    require(term < kRoles, "compare_netlists: source with too many terminals");
    return static_cast<std::uint8_t>(term);
}

/// Both circuits' device-net incidence as one graph in CSR form.  Vertices
/// run golden devices, golden nets, candidate devices, candidate nets; each
/// terminal is one edge in each direction, labelled with its role.
struct Incidence {
    struct Side {
        std::uint32_t dev0 = 0, net0 = 0;    ///< first device / net vertex
        std::vector<std::string_view> nets;  ///< net vertex - net0 -> name
    };
    std::array<Side, 2> side;
    std::vector<std::uint32_t> offset;  ///< vertex -> first edge
    std::vector<std::uint32_t> target;
    std::vector<std::uint8_t> label;   ///< edge -> terminal role

    Incidence(const Circuit& a, const Circuit& b) {
        // Terminal -> local net index, per side.
        std::array<std::vector<std::uint32_t>, 2> term_net;
        std::uint32_t next = 0;
        for (std::size_t k = 0; k < 2; ++k) {
            const Circuit& c = k == 0 ? a : b;
            std::unordered_map<std::string_view, std::uint32_t> index;
            for (const Device& d : c.devices)
                for (const std::string& n : d.nodes) {
                    auto [it, fresh] = index.emplace(
                        n, static_cast<std::uint32_t>(side[k].nets.size()));
                    if (fresh) side[k].nets.push_back(n);
                    term_net[k].push_back(it->second);
                }
            side[k].dev0 = next;
            side[k].net0 = next + static_cast<std::uint32_t>(c.devices.size());
            next = side[k].net0 + static_cast<std::uint32_t>(side[k].nets.size());
        }
        offset.assign(next + 1, 0);
        for (std::size_t k = 0; k < 2; ++k) {
            const Circuit& c = k == 0 ? a : b;
            std::size_t t = 0;
            for (std::size_t i = 0; i < c.devices.size(); ++i)
                for (std::size_t j = 0; j < c.devices[i].nodes.size(); ++j) {
                    ++offset[side[k].dev0 + i + 1];
                    ++offset[side[k].net0 + term_net[k][t++] + 1];
                }
        }
        for (std::size_t v = 0; v < next; ++v) offset[v + 1] += offset[v];
        target.resize(offset[next]);
        label.resize(offset[next]);
        std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
        auto edge = [&](std::uint32_t from, std::uint32_t to, std::uint8_t r) {
            target[fill[from]] = to;
            label[fill[from]++] = r;
        };
        for (std::size_t k = 0; k < 2; ++k) {
            const Circuit& c = k == 0 ? a : b;
            std::size_t t = 0;
            for (std::size_t i = 0; i < c.devices.size(); ++i) {
                const Device& d = c.devices[i];
                const auto dv = static_cast<std::uint32_t>(side[k].dev0 + i);
                for (std::size_t j = 0; j < d.nodes.size(); ++j) {
                    const std::uint32_t nv = side[k].net0 + term_net[k][t++];
                    edge(dv, nv, role(d, j));
                    edge(nv, dv, role(d, j));
                }
            }
        }
    }

    std::uint32_t vertices() const {
        return static_cast<std::uint32_t>(offset.size() - 1);
    }
};

/// Coarsest stable partition refining `cls` (a class id per vertex, ids
/// dense from 0): any two vertices of one class have, for every class C
/// and role r, equally many role-r edges into C.  Worklist refinement with
/// Hopcroft's rule: a split re-enqueues every piece but the largest, so
/// each vertex serves as a splitter O(log V) times.
std::vector<std::uint32_t> stable_partition(const Incidence& g,
                                            std::vector<std::uint32_t> cls,
                                            std::uint32_t classes) {
    const std::uint32_t n = g.vertices();
    // Classes are contiguous ranges [begin, end) of `elems`.
    std::vector<std::uint32_t> begin(classes + 1, 0);
    for (std::uint32_t v = 0; v < n; ++v) ++begin[cls[v] + 1];
    for (std::uint32_t c = 0; c < classes; ++c) begin[c + 1] += begin[c];
    std::vector<std::uint32_t> end(begin.begin() + 1, begin.end());
    begin.pop_back();
    std::vector<std::uint32_t> elems(n), pos(n);
    {
        std::vector<std::uint32_t> fill = begin;
        for (std::uint32_t v = 0; v < n; ++v) {
            pos[v] = fill[cls[v]]++;
            elems[pos[v]] = v;
        }
    }
    std::vector<std::uint32_t> work(classes);
    std::iota(work.begin(), work.end(), 0u);
    std::vector<char> queued(classes, 1);

    using Count = std::array<std::uint32_t, kRoles>;
    std::vector<Count> count(n, Count{});
    std::vector<std::uint32_t> touched;

    // Split class x by the counts of its touched members t[0..m), which are
    // sorted by count.
    auto split = [&](std::uint32_t x, const std::uint32_t* t, std::size_t m) {
        if (m == end[x] - begin[x] && count[t[0]] == count[t[m - 1]]) return;
        // Move the touched members to the tail of x's range, in order.
        std::uint32_t tail = end[x];
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint32_t u = t[i], w = elems[--tail];
            elems[pos[u]] = w;
            pos[w] = pos[u];
            elems[tail] = u;
            pos[u] = tail;
        }
        // Pieces: the untouched head (keeps x), then one per distinct count.
        struct Piece {
            std::uint32_t id, size;
        };
        std::vector<Piece> pieces;
        std::uint32_t hi = end[x];
        if (tail > begin[x]) {
            end[x] = tail;
            pieces.push_back({x, tail - begin[x]});
        }
        for (std::size_t i = 0; i < m;) {
            std::size_t j = i + 1;
            while (j < m && count[t[j]] == count[t[i]]) ++j;
            const auto size = static_cast<std::uint32_t>(j - i);
            std::uint32_t id = x;
            if (!pieces.empty()) {
                id = static_cast<std::uint32_t>(begin.size());
                begin.push_back(0);
                end.push_back(0);
                queued.push_back(0);
            }
            begin[id] = hi - size;
            end[id] = hi;
            for (std::uint32_t p = begin[id]; p < end[id]; ++p) cls[elems[p]] = id;
            pieces.push_back({id, size});
            hi -= size;
            i = j;
        }
        const auto largest = std::max_element(
            pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.size < b.size; });
        const bool all = queued[x] != 0;
        for (auto it = pieces.begin(); it != pieces.end(); ++it) {
            if (queued[it->id] || (!all && it == largest)) continue;
            queued[it->id] = 1;
            work.push_back(it->id);
        }
    };

    while (!work.empty()) {
        const std::uint32_t s = work.back();
        work.pop_back();
        queued[s] = 0;
        touched.clear();
        for (std::uint32_t i = begin[s]; i < end[s]; ++i) {
            const std::uint32_t v = elems[i];
            for (std::uint32_t e = g.offset[v]; e < g.offset[v + 1]; ++e) {
                Count& c = count[g.target[e]];
                if (c == Count{}) touched.push_back(g.target[e]);
                ++c[g.label[e]];
            }
        }
        std::sort(touched.begin(), touched.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return std::tie(cls[a], count[a]) <
                             std::tie(cls[b], count[b]);
                  });
        for (std::size_t i = 0; i < touched.size();) {
            std::size_t j = i + 1;
            while (j < touched.size() && cls[touched[j]] == cls[touched[i]]) ++j;
            split(cls[touched[i]], touched.data() + i, j - i);
            i = j;
        }
        for (std::uint32_t u : touched) count[u] = Count{};
    }
    return cls;
}

} // namespace

CompareResult compare_netlists(const Circuit& golden, const Circuit& candidate,
                               double value_rel_tol) {
    CompareResult res;

    if (golden.devices.size() != candidate.devices.size())
        res.diffs.push_back(
            "device count mismatch: golden=" +
            std::to_string(golden.devices.size()) +
            " candidate=" + std::to_string(candidate.devices.size()));

    const Incidence g(golden, candidate);
    const std::array<const Circuit*, 2> ckt{&golden, &candidate};

    // Seed classes: devices by their static signature, nets by whether they
    // are ground (which is globally distinguishable).
    std::vector<std::uint32_t> cls(g.vertices());
    std::map<Seed, std::uint32_t> seeds;
    std::uint32_t classes = 0;
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t i = 0; i < ckt[k]->devices.size(); ++i) {
            auto [it, fresh] = seeds.emplace(
                device_seed(*ckt[k], ckt[k]->devices[i], value_rel_tol),
                classes);
            if (fresh) ++classes;
            cls[g.side[k].dev0 + i] = it->second;
        }
    std::array<std::uint32_t, 2> net_seed{UINT32_MAX, UINT32_MAX};
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t n = 0; n < g.side[k].nets.size(); ++n) {
            std::uint32_t& seed = net_seed[g.side[k].nets[n] == kGround];
            if (seed == UINT32_MAX) seed = classes++;
            cls[g.side[k].net0 + n] = seed;
        }

    cls = stable_partition(g, std::move(cls), classes);

    // Per class (a device class or a net class): golden members minus
    // candidate members.
    const std::size_t n_classes =
        cls.empty() ? 0 : *std::max_element(cls.begin(), cls.end()) + 1;
    std::vector<std::int64_t> balance(n_classes, 0);
    for (std::uint32_t v = 0; v < g.vertices(); ++v)
        balance[cls[v]] += v < g.side[1].dev0 ? 1 : -1;

    // Report the surplus devices of each unbalanced class, first members
    // first.
    for (std::size_t i = 0; i < golden.devices.size(); ++i) {
        std::int64_t& e = balance[cls[g.side[0].dev0 + i]];
        if (e > 0) {
            res.diffs.push_back("golden-only device class: " +
                                golden.devices[i].name);
            --e;
        }
    }
    for (std::size_t i = 0; i < candidate.devices.size(); ++i) {
        std::int64_t& e = balance[cls[g.side[1].dev0 + i]];
        if (e < 0) {
            res.diffs.push_back("candidate-only device class: " +
                                candidate.devices[i].name);
            ++e;
        }
    }

    // Net classes: balanced, and the map of those holding one net a side.
    std::vector<std::array<std::uint32_t, 2>> nets_in(n_classes, {0, 0});
    std::vector<std::string_view> partner(n_classes);
    bool net_mismatch = false;
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t n = 0; n < g.side[k].nets.size(); ++n) {
            const std::uint32_t c = cls[g.side[k].net0 + n];
            ++nets_in[c][k];
            net_mismatch |= balance[c] != 0;
            if (k == 1) partner[c] = g.side[1].nets[n];
        }
    if (net_mismatch) res.diffs.push_back("net colour classes differ");
    for (std::size_t n = 0; n < g.side[0].nets.size(); ++n) {
        const std::uint32_t c = cls[g.side[0].net0 + n];
        if (nets_in[c][0] == 1 && nets_in[c][1] == 1)
            res.net_map.emplace(g.side[0].nets[n], partner[c]);
    }

    res.equivalent = res.diffs.empty();
    return res;
}

} // namespace catlift::netlist
