// LIFT tests: fault descriptors and IO, schematic fault enumeration,
// L2RFM, and the full GLRFM extraction on the generated VCO layout.

#include "circuits/vco.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "lift/schematic_faults.h"
#include "pin_layouts.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

using namespace catlift;
using namespace catlift::lift;

namespace {

netlist::Circuit vco_schematic() {
    circuits::VcoOptions o;
    o.with_sources = false;
    return circuits::build_vco(o);
}

} // namespace

TEST(FaultModel, DescribeMatchesPaperStyle) {
    Fault f;
    f.id = 6;
    f.kind = FaultKind::LocalShort;
    f.mechanism = "n_ds_short";
    f.net_a = "5";
    f.net_b = "6";
    EXPECT_EQ(f.describe(), "#6 BRI n_ds_short 5->6");
}

TEST(FaultModel, RankSortsByProbability) {
    FaultList fl;
    for (double p : {1e-9, 5e-7, 3e-8}) {
        Fault f;
        f.kind = FaultKind::LocalShort;
        f.probability = p;
        f.net_a = "a";
        f.net_b = "b";
        fl.faults.push_back(f);
    }
    fl.rank();
    EXPECT_DOUBLE_EQ(fl.faults[0].probability, 5e-7);
    EXPECT_EQ(fl.faults[0].id, 1);
    EXPECT_EQ(fl.faults[2].id, 3);
    EXPECT_NEAR(fl.total_probability(), 5.31e-7, 1e-9);
}

TEST(FaultModel, FaultListRoundTrip) {
    FaultList fl;
    fl.circuit = "vco";
    Fault b;
    b.id = 1;
    b.kind = FaultKind::GlobalShort;
    b.mechanism = "metal1_short";
    b.probability = 3.4e-8;
    b.net_a = "1";
    b.net_b = "5";
    fl.faults.push_back(b);
    Fault o;
    o.id = 2;
    o.kind = FaultKind::SplitNode;
    o.mechanism = "metal2_open";
    o.probability = 6e-9;
    o.net = "8";
    o.group_b = {{"M6", 0}, {"M7", 1}};
    fl.faults.push_back(o);
    Fault s;
    s.id = 3;
    s.kind = FaultKind::StuckOpen;
    s.mechanism = "contact_diff_open";
    s.probability = 8e-9;
    s.victim = {"M7", 0};
    fl.faults.push_back(s);

    const FaultList back = read_faultlist_text(write_faultlist(fl));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.circuit, "vco");
    EXPECT_EQ(back.faults[0].kind, FaultKind::GlobalShort);
    EXPECT_EQ(back.faults[0].net_b, "5");
    EXPECT_NEAR(back.faults[0].probability, 3.4e-8, 1e-12);
    ASSERT_EQ(back.faults[1].group_b.size(), 2u);
    EXPECT_EQ(back.faults[1].group_b[1], (TerminalRef{"M7", 1}));
    EXPECT_EQ(back.faults[2].victim.device, "M7");
}

TEST(FaultModel, BadFaultListRejected) {
    EXPECT_THROW(read_faultlist_text("fault 1\nend\n"), Error);
    EXPECT_THROW(read_faultlist_text("faultlist x\nbogus\nend\n"), Error);
    EXPECT_THROW(
        read_faultlist_text("faultlist x\nfault 1 local_short m 1e-9 short a\nend\n"),
        Error);
    EXPECT_THROW(read_faultlist_text("faultlist x\n"), Error);
}

// ---------------------------------------------------------------------------
// Schematic fault enumeration (ch. VI arithmetic).

TEST(SchematicFaults, VcoCountsMatchPaper) {
    const FaultList fl = all_schematic_faults(vco_schematic());
    // "From the schematic 78 possible single open faults can be assumed on
    // the transistors and one open fault on the capacitor ... the number
    // of shorts is 73, including the short on the capacitor."
    EXPECT_EQ(fl.opens(), 79u);
    EXPECT_EQ(fl.shorts(), 73u);
    EXPECT_EQ(fl.size(), 152u);
}

TEST(SchematicFaults, DesignedShortsExcluded) {
    // The six diode-connected devices contribute no gate-drain short.
    const FaultList fl = all_schematic_faults(vco_schematic());
    for (const Fault& f : fl.faults) {
        if (f.kind != FaultKind::LocalShort) continue;
        EXPECT_NE(f.net_a, f.net_b) << f.describe();
    }
    // 26 transistors x 3 pairs - 6 designed + 1 capacitor short = 73.
    EXPECT_EQ(fl.shorts(), 26u * 3u - 6u + 1u);
}

TEST(SchematicFaults, SourcesAreNotFaultSites) {
    netlist::Circuit c = vco_schematic();
    const std::size_t before = all_schematic_faults(c).size();
    c.add_vsource("VX", "2", "0", netlist::SourceSpec::make_dc(1.0));
    EXPECT_EQ(all_schematic_faults(c).size(), before);
}

TEST(L2rfm, SitsBetweenFullListAndGlrfm) {
    const netlist::Circuit sch = vco_schematic();
    const FaultList full = all_schematic_faults(sch);
    const FaultList l2 = l2rfm_faults(sch);
    EXPECT_LT(l2.size(), full.size());
    EXPECT_GT(l2.size(), 20u);
    // Weighted and ranked.
    EXPECT_GT(l2.faults.front().probability, l2.faults.back().probability);
}

TEST(L2rfm, ThresholdShrinksList) {
    const netlist::Circuit sch = vco_schematic();
    L2rfmOptions strict;
    strict.p_min = 1e-7;
    EXPECT_LT(l2rfm_faults(sch, strict).size(), l2rfm_faults(sch).size());
}

// ---------------------------------------------------------------------------
// GLRFM on the generated VCO layout.

class Glrfm : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        const netlist::Circuit sch = vco_schematic();
        const auto lo = layout::generate_cell_layout(
            sch, layout::vco_cellgen_options());
        LiftOptions opt;
        opt.net_blocks = circuits::vco_net_blocks();
        res_ = new LiftResult(extract_faults(
            lo, layout::Technology::single_poly_double_metal(), opt));
    }
    static void TearDownTestSuite() {
        delete res_;
        res_ = nullptr;
    }
    static LiftResult* res_;
};

LiftResult* Glrfm::res_ = nullptr;

TEST_F(Glrfm, SignificantReductionVsSchematic) {
    // Paper: 152 -> 70, a 53% reduction.  The generated layout lands in
    // the same regime.
    const std::size_t full = all_schematic_faults(vco_schematic()).size();
    const double reduction =
        1.0 - static_cast<double>(res_->faults.size()) /
                  static_cast<double>(full);
    EXPECT_GT(reduction, 0.40);
    EXPECT_LT(reduction, 0.70);
}

TEST_F(Glrfm, BridgingFaultsDominate) {
    // Paper: 55 of 70 extracted failures are bridges.
    const FaultList& fl = res_->faults;
    EXPECT_GT(fl.shorts(), fl.size() / 2);
}

TEST_F(Glrfm, StuckOpenCountTracksContactRedundancy) {
    // Seven terminals are drawn with single contacts; the stuck-open count
    // must be in that region (cross-row supply stubs can add a couple).
    const std::size_t n = res_->faults.count(FaultKind::StuckOpen);
    EXPECT_GE(n, 5u);
    EXPECT_LE(n, 12u);
}

TEST_F(Glrfm, ProbabilitiesInPaperRange) {
    for (const Fault& f : res_->faults.faults) {
        EXPECT_LT(f.probability, 1e-6) << f.describe();
        EXPECT_GT(f.probability, 1e-9) << f.describe();
    }
}

TEST_F(Glrfm, PaperExemplarFaultsPresent) {
    // The #6-class bridge (5->6, charge rail to capacitor) and the
    // #339-class supply bridge (1->3) must be extracted: the track order
    // places them adjacent, as the paper's layout did.
    auto has_bridge = [&](const std::string& a, const std::string& b) {
        for (const Fault& f : res_->faults.faults)
            if ((f.kind == FaultKind::LocalShort ||
                 f.kind == FaultKind::GlobalShort) &&
                ((f.net_a == a && f.net_b == b) ||
                 (f.net_a == b && f.net_b == a)))
                return true;
        return false;
    };
    EXPECT_TRUE(has_bridge("5", "6"));
    EXPECT_TRUE(has_bridge("1", "3"));
    EXPECT_TRUE(has_bridge("0", "9"));
}

TEST_F(Glrfm, DrainSourceBridgesExtracted) {
    // The n_ds_short class: source/drain diffusions face each other across
    // every gate; diffusion bridges must appear for switch transistors.
    bool any_diff = false;
    for (const Fault& f : res_->faults.faults)
        if (f.mechanism == "diff_short") any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST_F(Glrfm, RankedDescending) {
    const auto& fs = res_->faults.faults;
    for (std::size_t i = 1; i < fs.size(); ++i)
        EXPECT_LE(fs[i].probability, fs[i - 1].probability);
    EXPECT_EQ(fs.front().id, 1);
}

TEST_F(Glrfm, MergedFaultsAreUnique) {
    std::set<std::string> seen;
    for (const Fault& f : res_->faults.faults) {
        std::string key = f.describe().substr(f.describe().find(' ') + 1);
        EXPECT_TRUE(seen.insert(key).second) << "duplicate: " << key;
    }
}

TEST_F(Glrfm, StatisticsAreConsistent) {
    const LiftStats& st = res_->stats;
    EXPECT_GT(st.bridge_sites, res_->faults.shorts());  // merging happened
    EXPECT_GT(st.cut_sites, 0u);
    EXPECT_GT(st.open_sites, 0u);
    EXPECT_GT(st.dropped, 0u);
    EXPECT_GT(st.dropped_probability, 0.0);
}

TEST_F(Glrfm, ThresholdMonotonicity) {
    // Property: raising p_min can only shrink the list.
    const netlist::Circuit sch = vco_schematic();
    const auto lo =
        layout::generate_cell_layout(sch, layout::vco_cellgen_options());
    std::size_t prev = SIZE_MAX;
    for (double p : {5e-9, 1.2e-8, 5e-8}) {
        LiftOptions opt;
        opt.p_min = p;
        auto r = extract_faults(
            lo, layout::Technology::single_poly_double_metal(), opt);
        EXPECT_LE(r.faults.size(), prev);
        prev = r.faults.size();
    }
}

// ---------------------------------------------------------------------------
// Pins: digests of the written fault list, its exact probabilities and
// every LiftStats field, recorded from the exhaustive whole-net analysis;
// the indexed one must reproduce them.  Site enumeration order is part of
// the contract: merged probabilities are floating-point sums taken in that
// order.

TEST(LiftPins, FaultListAndStatsDigestsUnchanged) {
    const std::map<std::string, std::string> expected = {
        {"vco", "8719426cf6437ea4"},
        {"chain16", "225ba3dd0e039f48"},
        {"chain64", "ef8e00e2e66c0618"},
        {"chain128", "3d09254cdda78ef4"},
        {"chain24_shuffled", "116772dc3a8de2c9"},
    };
    for (const pins::PinLayout& p : pins::pin_layouts()) {
        LiftOptions opt;
        if (p.vco) opt.net_blocks = circuits::vco_net_blocks();
        const LiftResult r = extract_faults(
            p.layout, layout::Technology::single_poly_double_metal(), opt);
        const LiftStats& st = r.stats;
        std::ostringstream os;
        os << write_faultlist(r.faults) << st.bridge_sites << ' '
           << st.open_sites << ' ' << st.cut_sites << ' '
           << st.redundant_opens << ' ' << st.dangling_opens << ' '
           << st.dropped << ' ' << std::hexfloat << st.dropped_probability;
        // write_faultlist rounds to six digits; pin the exact sums too.
        for (const Fault& f : r.faults.faults) os << ' ' << f.probability;
        EXPECT_EQ(pins::hex64(batch::fnv1a(os.str())), expected.at(p.name))
            << p.name;
    }
}

// ---------------------------------------------------------------------------
// Redundant paths: hand-drawn nets with loops, parallel cut clusters, a
// fragment whose removal splits a net three ways and a detour around a
// bar.  None of the generated pin layouts has a redundant open, so these
// pin the cycle logic of the open analysis: digests (as LiftPins, with
// p_min 0 so every fault is written, recorded from the per-site
// union-find analysis) plus the redundant and dangling counts.

namespace {

using geom::Rect;
using layout::Layer;

/// An NMOS named `name` at (x, y) um, drawn as in extract_test's one_nmos:
/// source | channel | drain diffusion (w_um tall) under a vertical poly
/// gate; one contact and a metal1 pad (x+1..5 and x+12..16,
/// y+0.5..pad_top) on each of source and drain.
void add_nmos(layout::Layout& lo, const std::string& name, double x, double y,
              double w_um = 10.0, double pad_top = 3.5) {
    lo.add(Layer::NDiff, Rect::um(x, y, x + 8, y + w_um), name + ":s");
    lo.add(Layer::NDiff, Rect::um(x + 8, y, x + 10, y + w_um), name + ":chan");
    lo.add(Layer::NDiff, Rect::um(x + 10, y, x + 18, y + w_um), name + ":d");
    lo.add(Layer::Poly, Rect::um(x + 8, y - 2, x + 10, y + w_um + 2),
           name + ":g");
    lo.add(Layer::Contact, Rect::um(x + 2, y + 1, x + 4, y + 3), name + ":s");
    lo.add(Layer::Metal1, Rect::um(x + 1, y + 0.5, x + 5, y + pad_top),
           name + ":s");
    lo.add(Layer::Contact, Rect::um(x + 13, y + 1, x + 15, y + 3),
           name + ":d");
    lo.add(Layer::Metal1, Rect::um(x + 12, y + 0.5, x + 16, y + pad_top),
           name + ":d");
}

/// A metal1 stub from a routing bar at y = -9 um up into the drain pad of
/// the NMOS at x.
void add_drain_stub(layout::Layout& lo, double x) {
    lo.add(Layer::Metal1, Rect::um(x + 13, -9, x + 15, 0.75), "route");
}

/// Removing the bar splits its net into three drains and a dangling stub;
/// a label on the bar makes the port side A.  T1's drain also carries a
/// second contact, within cluster distance, under a separate labelled pad,
/// so that pad reaches the net only through a cut of a cluster it does not
/// name.
layout::Layout split_three_ways() {
    layout::Layout lo;
    lo.name = "split3";
    lo.add(Layer::Metal1, Rect::um(10, -10, 110, -8), "bar");
    lo.add_label(Layer::Metal1, {geom::from_um(11), geom::from_um(-9)},
                 "out");
    for (const auto& [name, x] :
         {std::pair{"T1", 0.0}, std::pair{"T2", 30.0}, std::pair{"T3", 60.0}}) {
        add_nmos(lo, name, x, 0);
        add_drain_stub(lo, x);
    }
    lo.add(Layer::Metal1, Rect::um(100, -20, 102, -9), "dangling");
    lo.add(Layer::Contact, Rect::um(13, 6, 15, 8), "T1:d");
    lo.add(Layer::Metal1, Rect::um(12, 5.5, 16, 8.5), "T1:d2");
    lo.add_label(Layer::Metal1, {geom::from_um(14), geom::from_um(8)}, "out");
    return lo;
}

/// The drain bar of split_three_ways closed into a loop: a lower bar and two
/// connectors tie the bar's left end to the span between T2 and T3, so the
/// gap between T1's and T2's stubs is bypassed while the one before T3's is
/// not.  T2's gate continues into a poly strip contacted twice, the two
/// metal1 pads joined by a strap: a loop through two cut clusters.
layout::Layout bar_with_loops() {
    layout::Layout lo;
    lo.name = "loops";
    lo.add(Layer::Metal1, Rect::um(-20, -20, -18, -9), "dangling");
    lo.add(Layer::Metal1, Rect::um(-20, -10, 80, -8), "bar");
    for (const auto& [name, x] :
         {std::pair{"T1", 0.0}, std::pair{"T2", 30.0}, std::pair{"T3", 60.0}}) {
        add_nmos(lo, name, x, 0);
        add_drain_stub(lo, x);
    }
    lo.add(Layer::Metal1, Rect::um(11, -19, 13, -9), "conn");
    lo.add(Layer::Metal1, Rect::um(12, -20, 50, -18), "lower");
    lo.add(Layer::Metal1, Rect::um(48, -19, 50, -9), "conn");
    lo.add_label(Layer::Metal1, {geom::from_um(79), geom::from_um(-9)},
                 "out");
    // Gate strip of T2 with two contacts 18 um apart and a metal1 strap.
    lo.add(Layer::Poly, Rect::um(36, 12, 60, 16), "T2:g");
    lo.add(Layer::Contact, Rect::um(37, 13, 39, 15), "T2:g");
    lo.add(Layer::Contact, Rect::um(57, 13, 59, 15), "T2:g");
    lo.add(Layer::Metal1, Rect::um(36, 12.5, 40, 15.5), "T2:g");
    lo.add(Layer::Metal1, Rect::um(40, 13, 56, 15), "strap");
    lo.add(Layer::Metal1, Rect::um(56, 12.5, 60, 15.5), "T2:g");
    lo.add_label(Layer::Metal1, {geom::from_um(50), geom::from_um(14)}, "g2");
    return lo;
}

/// Parallel edges: a wide source whose one metal1 pad reaches the
/// diffusion through two contacts 23 um apart, i.e. two cut clusters
/// joining the same two fragments.  The drain pad carries a stub down to a
/// bar with a second transistor.
layout::Layout parallel_clusters() {
    layout::Layout lo;
    lo.name = "parallel";
    add_nmos(lo, "T1", 0, 0, 30.0, 29.5);
    lo.add(Layer::Contact, Rect::um(2, 26, 4, 28), "T1:s");
    lo.add_label(Layer::Metal1, {geom::from_um(3), geom::from_um(20)}, "s");
    add_drain_stub(lo, 0);
    add_nmos(lo, "T2", 30, 0);
    add_drain_stub(lo, 30);
    lo.add(Layer::Metal1, Rect::um(10, -10, 50, -8), "bar");
    return lo;
}

/// A detour around the bar: the first shape, a riser at the bar's left
/// end, is where the fragment graph is first entered, and a lower bar ties
/// its foot to a stub hanging from the bar's middle, which also leads down
/// to T1's drain.  Removing the bar leaves that stub attached to the riser
/// side, while T2's labelled stub at the right end is cut off, so the gap
/// before it moves the side holding T1's drain.
layout::Layout detour() {
    layout::Layout lo;
    lo.name = "detour";
    lo.add(Layer::Metal1, Rect::um(0, -30, 2, -9), "riser");
    lo.add(Layer::Metal1, Rect::um(0, -10, 100, -8), "bar");
    lo.add(Layer::Metal1, Rect::um(40, -30, 42, -9), "stub");
    lo.add(Layer::Metal1, Rect::um(0, -30, 42, -28), "lower");
    add_nmos(lo, "T1", 27, -60);
    lo.add(Layer::Metal1, Rect::um(40, -59.25, 42, -29), "stub");
    add_nmos(lo, "T2", 67, 0);
    add_drain_stub(lo, 67);
    lo.add_label(Layer::Metal1, {geom::from_um(81), geom::from_um(-4)},
                 "out");
    return lo;
}

std::string lift_digest(const LiftResult& r) {
    const LiftStats& st = r.stats;
    std::ostringstream os;
    os << write_faultlist(r.faults) << st.bridge_sites << ' ' << st.open_sites
       << ' ' << st.cut_sites << ' ' << st.redundant_opens << ' '
       << st.dangling_opens << ' ' << st.dropped << ' ' << std::hexfloat
       << st.dropped_probability;
    for (const Fault& f : r.faults.faults) os << ' ' << f.probability;
    return pins::hex64(batch::fnv1a(os.str()));
}

} // namespace

TEST(LiftRedundantPaths, LoopsParallelCutsSplitsAndDetoursPinned) {
    struct Case {
        layout::Layout layout;
        std::size_t redundant, dangling;
        const char* digest;
    };
    const Case cases[] = {
        {split_three_ways(), 0, 4, "e815c3a78ef5f118"},
        {bar_with_loops(), 12, 4, "9f8db7b570d7c7ac"},
        {parallel_clusters(), 4, 1, "7bfe6a59e682f0a6"},
        {detour(), 4, 2, "867aedba12facf39"},
    };
    for (const Case& c : cases) {
        LiftOptions opt;
        opt.p_min = 0.0;
        const LiftResult r = extract_faults(
            c.layout, layout::Technology::single_poly_double_metal(), opt);
        EXPECT_EQ(r.stats.redundant_opens, c.redundant) << c.layout.name;
        EXPECT_EQ(r.stats.dangling_opens, c.dangling) << c.layout.name;
        EXPECT_EQ(lift_digest(r), c.digest) << c.layout.name;
    }
}
