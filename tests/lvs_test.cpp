// LVS refinement at depth: inverter chains that need one refinement step
// per stage, single miswires deep inside them, a pinned VCO comparison,
// and a reference property that holds compare_netlists() to a naive
// colour refinement run to its fixpoint.

#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "netlist/compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace catlift;
using netlist::Circuit;
using netlist::CompareResult;
using netlist::Device;
using netlist::DeviceKind;
using netlist::SourceSpec;

namespace {

const auto kTech = layout::Technology::single_poly_double_metal();

Circuit extracted(const Circuit& schematic,
                  const layout::CellgenOptions& opt = {}) {
    return extract::extract(layout::generate_cell_layout(schematic, opt),
                            kTech)
        .circuit;
}

std::string dump(const CompareResult& r) {
    std::string s;
    for (const auto& d : r.diffs) s += d + "\n";
    return s;
}

// ---------------------------------------------------------------------------
// Reference: synchronous colour refinement over both circuits at once,
// one round per step, until a round splits no class.  Each round's colour
// is the rank of (old colour, sorted neighbour colours) among that round's
// signatures, so colours are comparable across the two circuits.

std::int64_t ref_bucket(double v, double tol) {
    if (v == 0.0) return 0;
    return std::llround(std::log(std::fabs(v)) / std::max(tol, 1e-12));
}

int ref_role(const Device& d, int term) {
    switch (d.kind) {
        case DeviceKind::Resistor:
        case DeviceKind::Capacitor: return 0;
        case DeviceKind::VSource:
        case DeviceKind::ISource: return term;
        case DeviceKind::Mosfet:
            if (term == Device::kGate) return 1;
            if (term == Device::kBulk) return 2;
            return 0;
    }
    return term;
}

using Seed = std::tuple<int, int, std::int64_t, std::int64_t>;

Seed ref_seed(const Circuit& c, const Device& d, double tol) {
    const int kind = static_cast<int>(d.kind);
    switch (d.kind) {
        case DeviceKind::Resistor:
        case DeviceKind::Capacitor:
            return {kind, 0, ref_bucket(d.value, tol), 0};
        case DeviceKind::Mosfet:
            return {kind, c.model_of(d).is_nmos ? 1 : 2,
                    ref_bucket(d.w, tol), ref_bucket(d.l, tol)};
        case DeviceKind::VSource:
        case DeviceKind::ISource:
            return {kind, 0, ref_bucket(d.source.dc_value(), tol), 0};
    }
    return {kind, 0, 0, 0};
}

struct Side {
    const Circuit* ckt;
    std::vector<std::string> nets;
    std::map<std::string, int> index;
    std::vector<int> dev_colour, net_colour;
};

CompareResult reference_compare(const Circuit& a, const Circuit& b,
                                 double tol) {
    Side side[2];
    side[0].ckt = &a;
    side[1].ckt = &b;
    std::map<Seed, int> seeds;
    for (Side& s : side) {
        for (const std::string& n : s.ckt->node_names()) {
            s.index[n] = static_cast<int>(s.nets.size());
            s.nets.push_back(n);
            s.net_colour.push_back(n == netlist::kGround ? 1 : 0);
        }
        for (const Device& d : s.ckt->devices)
            s.dev_colour.push_back(
                seeds.emplace(ref_seed(*s.ckt, d, tol), seeds.size())
                    .first->second);
    }
    auto classes = [&] {
        std::set<int> dev, net;
        for (const Side& s : side) {
            dev.insert(s.dev_colour.begin(), s.dev_colour.end());
            net.insert(s.net_colour.begin(), s.net_colour.end());
        }
        return dev.size() + net.size();
    };
    using Sig = std::pair<int, std::vector<std::pair<int, int>>>;
    for (std::size_t before = classes();;) {
        std::map<Sig, int> dev_pal, net_pal;
        std::vector<Sig> dev_sig[2], net_sig[2];
        for (int k = 0; k < 2; ++k) {
            const Side& s = side[k];
            std::vector<Sig> nets(s.nets.size());
            for (std::size_t n = 0; n < nets.size(); ++n)
                nets[n].first = s.net_colour[n];
            for (std::size_t i = 0; i < s.ckt->devices.size(); ++i) {
                const Device& d = s.ckt->devices[i];
                Sig sig{s.dev_colour[i], {}};
                for (std::size_t t = 0; t < d.nodes.size(); ++t) {
                    const int r = ref_role(d, static_cast<int>(t));
                    const int n = s.index.at(d.nodes[t]);
                    sig.second.emplace_back(r, s.net_colour[n]);
                    nets[n].second.emplace_back(s.dev_colour[i], r);
                }
                std::sort(sig.second.begin(), sig.second.end());
                dev_sig[k].push_back(sig);
            }
            for (Sig& sig : nets) std::sort(sig.second.begin(), sig.second.end());
            net_sig[k] = std::move(nets);
        }
        for (int k = 0; k < 2; ++k) {
            for (const Sig& sig : dev_sig[k]) dev_pal.emplace(sig, 0);
            for (const Sig& sig : net_sig[k]) net_pal.emplace(sig, 0);
        }
        int rank = 0;
        for (auto& [sig, c] : dev_pal) c = rank++;
        rank = 0;
        for (auto& [sig, c] : net_pal) c = rank++;
        for (int k = 0; k < 2; ++k) {
            for (std::size_t i = 0; i < dev_sig[k].size(); ++i)
                side[k].dev_colour[i] = dev_pal.at(dev_sig[k][i]);
            for (std::size_t n = 0; n < net_sig[k].size(); ++n)
                side[k].net_colour[n] = net_pal.at(net_sig[k][n]);
        }
        const std::size_t after = classes();
        if (after == before) break;
        before = after;
    }

    CompareResult res;
    if (a.devices.size() != b.devices.size())
        res.diffs.push_back("device count mismatch: golden=" +
                            std::to_string(a.devices.size()) + " candidate=" +
                            std::to_string(b.devices.size()));
    std::map<int, int> dev_balance, net_balance;  // golden minus candidate
    for (int c : side[0].dev_colour) ++dev_balance[c];
    for (int c : side[1].dev_colour) --dev_balance[c];
    for (int c : side[0].net_colour) ++net_balance[c];
    for (int c : side[1].net_colour) --net_balance[c];
    std::map<int, int> only_a, only_b;
    for (auto [c, n] : dev_balance) {
        if (n > 0) only_a[c] = n;
        if (n < 0) only_b[c] = -n;
    }
    for (std::size_t i = 0; i < a.devices.size(); ++i)
        if (only_a[side[0].dev_colour[i]]-- > 0)
            res.diffs.push_back("golden-only device class: " +
                                a.devices[i].name);
    for (std::size_t i = 0; i < b.devices.size(); ++i)
        if (only_b[side[1].dev_colour[i]]-- > 0)
            res.diffs.push_back("candidate-only device class: " +
                                b.devices[i].name);
    if (std::any_of(net_balance.begin(), net_balance.end(),
                    [](const auto& kv) { return kv.second != 0; }))
        res.diffs.push_back("net colour classes differ");
    std::map<int, std::vector<int>> by_a, by_b;
    for (std::size_t n = 0; n < side[0].nets.size(); ++n)
        by_a[side[0].net_colour[n]].push_back(static_cast<int>(n));
    for (std::size_t n = 0; n < side[1].nets.size(); ++n)
        by_b[side[1].net_colour[n]].push_back(static_cast<int>(n));
    for (const auto& [c, list] : by_a) {
        auto it = by_b.find(c);
        if (it != by_b.end() && list.size() == 1 && it->second.size() == 1)
            res.net_map[side[0].nets[list[0]]] = side[1].nets[it->second[0]];
    }
    res.equivalent = res.diffs.empty();
    return res;
}

// ---------------------------------------------------------------------------
// Seeded random circuits with every device kind and terminal role.

class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed ? seed : 1) {}
    std::uint64_t next() {
        s_ ^= s_ >> 12;
        s_ ^= s_ << 25;
        s_ ^= s_ >> 27;
        return s_ * 0x2545F4914F6CDD1Dull;
    }
    int pick(int n) {
        return static_cast<int>(next() % static_cast<std::uint64_t>(n));
    }

private:
    std::uint64_t s_;
};

std::string node(int i) { return i == 0 ? "0" : "n" + std::to_string(i); }

Circuit random_circuit(Rng& rng) {
    Circuit c;
    c.add_model(circuits::standard_nmos());
    c.add_model(circuits::standard_pmos());
    const int n_nodes = 3 + rng.pick(30);
    const int n_devices = 2 + rng.pick(60);
    for (int i = 0; i < n_devices; ++i) {
        const std::string id = std::to_string(i);
        const std::string a = node(rng.pick(n_nodes));
        const std::string b = node(rng.pick(n_nodes));
        // Few distinct values, so devices of one kind often tie.
        const double v = 1.0 + rng.pick(3);
        switch (rng.pick(6)) {
            case 0: c.add_resistor("R" + id, a, b, 1e3 * v); break;
            case 1: c.add_capacitor("C" + id, a, b, 1e-12 * v); break;
            case 2:
                c.add_vsource("V" + id, a, b, SourceSpec::make_dc(v));
                break;
            case 3:
                c.add_isource("I" + id, a, b, SourceSpec::make_dc(1e-6 * v));
                break;
            default: {
                const bool nmos = rng.pick(2) == 0;
                c.add_mosfet("M" + id, a, node(rng.pick(n_nodes)), b,
                             node(rng.pick(n_nodes)), nmos ? "nm" : "pm",
                             10e-6 * v, 2e-6);
                break;
            }
        }
    }
    return c;
}

/// The same circuit under new net and device names, a shuffled device
/// order, and swapped drain/source or R/C terminals.
Circuit relabelled(const Circuit& c, Rng& rng) {
    const auto names = c.node_names();
    std::vector<int> perm(names.size());
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.pick(static_cast<int>(i))]);
    std::map<std::string, std::string> rename;
    for (std::size_t i = 0; i < names.size(); ++i)
        rename[names[i]] = names[i] == netlist::kGround
                               ? std::string(netlist::kGround)
                               : "x" + std::to_string(perm[i]);
    Circuit out;
    out.models = c.models;
    std::vector<Device> devs = c.devices;
    for (std::size_t i = devs.size(); i > 1; --i)
        std::swap(devs[i - 1], devs[rng.pick(static_cast<int>(i))]);
    for (std::size_t i = 0; i < devs.size(); ++i) {
        Device d = devs[i];
        d.name = d.name.substr(0, 1) + "q" + std::to_string(i);
        for (std::string& n : d.nodes) n = rename.at(n);
        const bool symmetric = d.kind == DeviceKind::Resistor ||
                               d.kind == DeviceKind::Capacitor ||
                               d.kind == DeviceKind::Mosfet;
        if (symmetric && rng.pick(2) == 0)
            std::swap(d.nodes[0],
                      d.nodes[d.kind == DeviceKind::Mosfet ? 2 : 1]);
        out.add(d);
    }
    return out;
}

/// One structural or value change: a rewired terminal, a resized or
/// deleted device, or a reversed source.
void perturb(Circuit& c, Rng& rng) {
    const auto names = c.node_names();
    Device& d = c.devices[rng.pick(static_cast<int>(c.devices.size()))];
    switch (rng.pick(4)) {
        case 0:
            d.nodes[rng.pick(static_cast<int>(d.nodes.size()))] =
                names[rng.pick(static_cast<int>(names.size()))];
            break;
        case 1:
            d.value *= 2.0;
            d.w *= 2.0;
            d.source = SourceSpec::make_dc(2.0 * d.source.dc_value() + 1.0);
            break;
        case 2: std::swap(d.nodes[0], d.nodes[1]); break;
        default: c.remove_device(d.name); break;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Deep chains: refinement needs one step per stage, so a capped round
// loop stops short of the full partition.

TEST(LvsDepth, ChainOf128MapsEveryNet) {
    const Circuit chain = circuits::build_inverter_chain(128, false);
    const auto r = netlist::compare_netlists(chain, extracted(chain), 1e-2);
    EXPECT_TRUE(r.equivalent) << dump(r);
    EXPECT_EQ(r.net_map.size(), 131u);
    for (const std::string& n : chain.node_names())
        EXPECT_TRUE(r.net_map.count(n)) << n;
}

TEST(LvsDepth, GateSwapAnywhereInAChainIsCaught) {
    const Circuit golden = circuits::build_inverter_chain(256, false);
    for (int k : {10, 50, 120, 200, 250}) {
        SCOPED_TRACE("NMOS #" + std::to_string(k));
        Circuit sabotaged = golden;
        std::swap(sabotaged.device("MN" + std::to_string(k))
                      .nodes[Device::kGate],
                  sabotaged.device("MN" + std::to_string(k + 1))
                      .nodes[Device::kGate]);
        const auto r = netlist::compare_netlists(golden, sabotaged, 1e-2);
        EXPECT_FALSE(r.equivalent);
        EXPECT_FALSE(r.diffs.empty());
    }
}

// ---------------------------------------------------------------------------
// The VCO against its extraction, pinned: the net correspondence, and the
// report for a schematic with M11's gate moved onto the charge rail.

class LvsVco : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        circuits::VcoOptions vopt;
        vopt.with_sources = false;
        schematic_ = new Circuit(circuits::build_vco(vopt));
        extraction_ =
            new Circuit(extracted(*schematic_, layout::vco_cellgen_options()));
    }
    static void TearDownTestSuite() {
        delete schematic_;
        delete extraction_;
    }
    static Circuit* schematic_;
    static Circuit* extraction_;
};

Circuit* LvsVco::schematic_ = nullptr;
Circuit* LvsVco::extraction_ = nullptr;

TEST_F(LvsVco, NetMapIsPinned) {
    const auto r = netlist::compare_netlists(*schematic_, *extraction_, 1e-2);
    EXPECT_TRUE(r.equivalent) << dump(r);
    // Fifteen nets are unique; the rest stay tied by the layout's
    // symmetric unit pairs.
    const std::map<std::string, std::string> want = {
        {"0", "0"},   {"1", "1"},   {"2", "2"},   {"3", "3"},   {"4", "4"},
        {"5", "5"},   {"6", "6"},   {"7", "7"},   {"8", "8"},   {"9", "9"},
        {"10", "10"}, {"11", "11"}, {"12", "12"}, {"14", "14"}, {"15", "15"},
    };
    EXPECT_EQ(r.net_map, want);
}

TEST_F(LvsVco, SabotageReportIsPinned) {
    Circuit golden = *schematic_;
    golden.device("M11").nodes[Device::kGate] = circuits::kVcoChargeRail;
    const auto r = netlist::compare_netlists(golden, *extraction_, 1e-2);
    EXPECT_FALSE(r.equivalent);
    std::vector<std::string> want;
    for (const char* name : {
        "M1", "M2", "M26", "M3", "M24", "M4", "M5", "M6", "M25", "M7", "M8",
        "M9", "M10", "M23", "M11", "M12", "M13", "M14", "M15", "M16", "M17",
        "M18", "M19", "M20", "M21", "M22", "C1"})
        want.push_back(std::string("golden-only device class: ") + name);
    for (const char* name : {
        "M1", "M2", "M26", "M6", "M25", "M7", "M8", "M10", "M11", "M12",
        "M13", "M18", "M20", "M22", "M3", "M24", "M4", "M5", "M9", "M23",
        "M14", "M15", "M16", "M17", "M19", "M21", "C1"})
        want.push_back(std::string("candidate-only device class: ") + name);
    want.push_back("net colour classes differ");
    EXPECT_EQ(r.diffs, want);
}

// ---------------------------------------------------------------------------
// Reference property: on seeded random circuits paired with relabelled
// and perturbed copies, compare_netlists() reports exactly what the naive
// fixpoint refinement reports.

TEST(LvsReference, MatchesNaiveRefinementToFixpoint) {
    int equivalent = 0, caught = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const Circuit a = random_circuit(rng);
        Circuit b = relabelled(a, rng);
        if (seed % 2 == 0) perturb(b, rng);
        const double tol = seed % 3 == 0 ? 1e-2 : 1e-3;
        const auto got = netlist::compare_netlists(a, b, tol);
        const auto want = reference_compare(a, b, tol);
        EXPECT_EQ(got.equivalent, want.equivalent);
        EXPECT_EQ(got.diffs, want.diffs);
        EXPECT_EQ(got.net_map, want.net_map);
        if (seed % 2 == 1) {
            EXPECT_TRUE(got.equivalent) << dump(got);
        }
        (got.equivalent ? equivalent : caught) += 1;
    }
    // Both outcomes are exercised.
    EXPECT_GT(equivalent, 500);
    EXPECT_GT(caught, 200);
}
