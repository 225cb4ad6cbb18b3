// xt::Extraction tests: hand-built micro-layouts with known netlists, then the
// full generated VCO layout (DRC clean, LVS clean).

#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "layout/drc.h"
#include "netlist/writer.h"
#include "pin_layouts.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

using namespace catlift;
namespace xt = catlift::extract;
using namespace catlift::layout;
using geom::Rect;

namespace {

const Technology kTech = Technology::single_poly_double_metal();

/// Hand-drawn single NMOS with labelled terminals:
///   diffusion strip crossed by a vertical poly gate, metal1 pads+contacts.
Layout one_nmos(double w_um = 10.0) {
    Layout lo;
    lo.name = "one_nmos";
    // Diffusion: source | channel | drain.
    lo.add(Layer::NDiff, Rect::um(0, 0, 8, w_um), "M1:s");
    lo.add(Layer::NDiff, Rect::um(8, 0, 10, w_um), "M1:chan");
    lo.add(Layer::NDiff, Rect::um(10, 0, 18, w_um), "M1:d");
    // Vertical poly gate with overhang.
    lo.add(Layer::Poly, Rect::um(8, -2, 10, w_um + 2), "M1:g");
    // Contacts + metal1 pads.
    lo.add(Layer::Contact, Rect::um(2, 1, 4, 3), "M1:s");
    lo.add(Layer::Metal1, Rect::um(1, 0.5, 5, 3.5), "M1:s");
    lo.add(Layer::Contact, Rect::um(13, 1, 15, 3), "M1:d");
    lo.add(Layer::Metal1, Rect::um(12, 0.5, 16, 3.5), "M1:d");
    // Gate pad above.
    lo.add(Layer::Poly, Rect::um(7, w_um + 2, 11, w_um + 6), "M1:g");
    lo.add(Layer::Contact, Rect::um(8, w_um + 3, 10, w_um + 5), "M1:g");
    lo.add(Layer::Metal1, Rect::um(7.5, w_um + 2.5, 10.5, w_um + 5.5),
           "M1:g");
    lo.add_label(Layer::Metal1, {geom::from_um(2), geom::from_um(2)}, "s");
    lo.add_label(Layer::Metal1, {geom::from_um(14), geom::from_um(2)}, "d");
    lo.add_label(Layer::Metal1,
                 {geom::from_um(9), geom::from_um(w_um + 4)}, "g");
    return lo;
}

} // namespace

TEST(Extract, SingleNmosRecognised) {
    xt::Extraction ex = xt::extract(one_nmos(), kTech);
    ASSERT_EQ(ex.mosfets.size(), 1u);
    const xt::ExtractedMos& m = ex.mosfets[0];
    EXPECT_EQ(m.name, "M1");
    EXPECT_TRUE(m.is_nmos);
    EXPECT_NEAR(m.w, 10e-6, 1e-9);
    EXPECT_NEAR(m.l, 2e-6, 1e-9);
    EXPECT_EQ(ex.net_name(m.net_gate), "g");
    EXPECT_EQ(ex.net_name(m.net_source), "s");
    EXPECT_EQ(ex.net_name(m.net_drain), "d");
}

TEST(Extract, ChannelBreaksDiffusionConnectivity) {
    xt::Extraction ex = xt::extract(one_nmos(), kTech);
    // Source and drain are distinct nets even though the drawn diffusion
    // rectangles abut the channel rectangle.
    const xt::ExtractedMos& m = ex.mosfets[0];
    EXPECT_NE(m.net_source, m.net_drain);
    EXPECT_NE(m.net_gate, m.net_source);
}

TEST(Extract, ExtractedWTracksGeometry) {
    for (double w : {4.0, 12.0, 37.5}) {
        xt::Extraction ex = xt::extract(one_nmos(w), kTech);
        ASSERT_EQ(ex.mosfets.size(), 1u);
        EXPECT_NEAR(ex.mosfets[0].w, w * 1e-6, 1e-9) << w;
    }
}

TEST(Extract, ConflictingLabelsRejected) {
    Layout lo = one_nmos();
    lo.add_label(Layer::Metal1, {geom::from_um(3), geom::from_um(1)},
                 "other");  // same pad as label "s"
    EXPECT_THROW(xt::extract(lo, kTech), Error);
}

TEST(Extract, DanglingLabelRejected) {
    Layout lo = one_nmos();
    lo.add_label(Layer::Metal2, {geom::from_um(500), geom::from_um(500)},
                 "nowhere");
    EXPECT_THROW(xt::extract(lo, kTech), Error);
}

TEST(Extract, FloatingContactRejected) {
    Layout lo = one_nmos();
    lo.add(Layer::Contact, Rect::um(100, 100, 102, 102), "stray");
    EXPECT_THROW(xt::extract(lo, kTech), Error);
}

namespace {

/// The message of the catlift::Error `extract` throws, or "" if none.
std::string extract_error(const Layout& lo) {
    try {
        xt::extract(lo, kTech);
    } catch (const Error& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Extract, ContactOnPolyAndDiffusionRejected) {
    Layout lo = one_nmos();
    // Straddles the source diffusion (x < 8) and the poly gate (x >= 8).
    lo.add(Layer::Contact, Rect::um(7, 1, 9, 3), "stray");
    lo.add(Layer::Metal1, Rect::um(6.5, 0.5, 9.5, 3.5), "stray");
    EXPECT_NE(extract_error(lo).find("contact bridges poly and diffusion"),
              std::string::npos)
        << extract_error(lo);
}

TEST(Extract, ViaWithoutMetal2Rejected) {
    Layout lo = one_nmos();
    lo.add(Layer::Via, Rect::um(2, 1.5, 3, 2.5), "stray");  // on the s pad
    EXPECT_NE(extract_error(lo).find("via not joining metal1 to metal2"),
              std::string::npos)
        << extract_error(lo);
}

TEST(Extract, GateWithoutOppositeDiffusionRejected) {
    Layout lo = one_nmos();
    // Poly crossing the end of a diffusion strip: diffusion on one side only.
    lo.add(Layer::NDiff, Rect::um(30, 0, 38, 10), "M2:chan");
    lo.add(Layer::Poly, Rect::um(37, -2, 39, 12), "M2:g");
    const std::string msg = extract_error(lo);
    EXPECT_NE(msg.find("gate of M2 lacks source/drain"), std::string::npos)
        << msg;
}

TEST(Extract, CutClustersGroupRedundantContacts) {
    Layout lo = one_nmos();
    // Add a second (redundant) source contact under the same pad.
    lo.add(Layer::Contact, Rect::um(2, 5, 4, 7), "M1:s");
    // Grow the pad so it covers both.
    lo.add(Layer::Metal1, Rect::um(1, 3.5, 5, 7.5), "M1:s");
    xt::Extraction ex = xt::extract(lo, kTech);
    // Find the source cut cluster: it must contain two cuts.
    bool found = false;
    for (const xt::CutCluster& cc : ex.cuts) {
        if (cc.owner == "M1:s" && cc.layer == Layer::Contact) {
            EXPECT_EQ(cc.cuts.size(), 2u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Extract, ViaJoinsMetal1AndMetal2) {
    Layout lo;
    lo.name = "via";
    lo.add(Layer::Metal1, Rect::um(0, 0, 4, 20), "a");
    lo.add(Layer::Metal2, Rect::um(-10, 8, 10, 12), "a");
    lo.add(Layer::Via, Rect::um(1, 9, 3, 11), "a");
    lo.add_label(Layer::Metal1, {geom::from_um(1), geom::from_um(1)}, "x");
    xt::Extraction ex = xt::extract(lo, kTech);
    // One net spanning both layers.
    EXPECT_EQ(ex.net_names.size(), 1u);
    EXPECT_EQ(ex.net_names[0], "x");
}

// ---------------------------------------------------------------------------
// Generated VCO layout: the end-to-end substrate of the paper's experiment.

class VcoLayout : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        circuits::VcoOptions vopt;
        vopt.with_sources = false;
        schematic_ = new netlist::Circuit(circuits::build_vco(vopt));
        layout_ = new Layout(
            generate_cell_layout(*schematic_, vco_cellgen_options()));
    }
    static void TearDownTestSuite() {
        delete schematic_;
        delete layout_;
        schematic_ = nullptr;
        layout_ = nullptr;
    }
    static netlist::Circuit* schematic_;
    static Layout* layout_;
};

netlist::Circuit* VcoLayout::schematic_ = nullptr;
Layout* VcoLayout::layout_ = nullptr;

TEST_F(VcoLayout, GeneratorEmitsAllDevices) {
    // 26 channels + gates.
    int channels = 0;
    for (const Shape& s : layout_->shapes)
        if (s.owner.find(":chan") != std::string::npos) ++channels;
    EXPECT_EQ(channels, 26);
    EXPECT_EQ(layout_->on_layer(Layer::CapMark).size(), 1u);
}

TEST_F(VcoLayout, DrcClean) {
    auto v = run_drc(*layout_, kTech);
    for (const auto& viol : v) ADD_FAILURE() << viol.describe();
    EXPECT_TRUE(v.empty());
}

TEST_F(VcoLayout, ExtractionRecoversAllDevices) {
    xt::Extraction ex = xt::extract(*layout_, kTech);
    EXPECT_EQ(ex.mosfets.size(), 26u);
    ASSERT_EQ(ex.caps.size(), 1u);
    EXPECT_NEAR(ex.caps[0].value, 2e-12, 0.05e-12);
}

TEST_F(VcoLayout, ExtractedNetsCarrySchematicNames) {
    xt::Extraction ex = xt::extract(*layout_, kTech);
    for (const char* n : {"0", "1", "2", "5", "6", "9", "11", "15"})
        EXPECT_NO_THROW(ex.net_id(n)) << n;
}

TEST_F(VcoLayout, LvsClean) {
    auto r = xt::lvs(*layout_, kTech, *schematic_);
    for (const auto& d : r.diffs) ADD_FAILURE() << d;
    EXPECT_TRUE(r.equivalent);
}

TEST_F(VcoLayout, LvsCatchesSabotage) {
    // Damage the layout: delete one via pair's stub -> net split; LVS must
    // complain.  (Remove every shape owned by M11's drain route.)
    Layout damaged = *layout_;
    damaged.shapes.erase(
        std::remove_if(damaged.shapes.begin(), damaged.shapes.end(),
                       [](const Shape& s) { return s.owner == "M11:d"; }),
        damaged.shapes.end());
    bool caught = false;
    try {
        auto r = xt::lvs(damaged, kTech, *schematic_);
        caught = !r.equivalent;
    } catch (const Error&) {
        caught = true;  // extraction itself may reject the orphan gate
    }
    EXPECT_TRUE(caught);
}

TEST_F(VcoLayout, LayoutFileRoundTrip) {
    const std::string text = write_layout(*layout_);
    Layout back = read_layout_text(text);
    EXPECT_EQ(back.shapes.size(), layout_->shapes.size());
    xt::Extraction ex = xt::extract(back, kTech);
    EXPECT_EQ(ex.mosfets.size(), 26u);
}

// ---------------------------------------------------------------------------
// Pins: digests of every extraction artefact, recorded from the exhaustive
// whole-layout scans; the indexed lookups must reproduce them.  Fragment,
// cut, device and net order are part of the contract (LIFT's site
// enumeration and its floating-point probability sums follow them).

namespace {

std::string extraction_text(const xt::Extraction& ex) {
    std::ostringstream os;
    os << std::hexfloat;
    auto rect = [&](const Rect& r) {
        os << r.lo.x << ',' << r.lo.y << ',' << r.hi.x << ',' << r.hi.y;
    };
    for (const xt::Fragment& f : ex.fragments) {
        os << "F " << static_cast<int>(f.layer) << ' ';
        rect(f.rect);
        os << ' ' << f.shape << ' ' << f.owner << ' ' << f.net << '\n';
    }
    for (const xt::CutCluster& c : ex.cuts) {
        os << "C " << static_cast<int>(c.layer) << " [";
        for (std::size_t s : c.cuts) os << s << ',';
        os << "] " << c.frag_a << ' ' << c.frag_b << ' ';
        rect(c.bbox);
        os << ' ' << c.owner << '\n';
    }
    for (const xt::ExtractedMos& m : ex.mosfets) {
        os << "M " << m.name << ' ' << m.is_nmos << ' ';
        rect(m.gate);
        os << ' ' << m.w << ' ' << m.l << ' ' << m.net_gate << ' '
           << m.net_source << ' ' << m.net_drain << ' ' << m.frag_gate << ' '
           << m.frag_source << ' ' << m.frag_drain << '\n';
    }
    for (const xt::ExtractedCap& c : ex.caps)
        os << "K " << c.name << ' ' << c.value << ' ' << c.net_top << ' '
           << c.net_bottom << ' ' << c.frag_top << ' ' << c.frag_bottom
           << '\n';
    for (const std::string& n : ex.net_names) os << "N " << n << '\n';
    os << netlist::write_spice(ex.circuit);
    return os.str();
}

} // namespace

TEST(ExtractPins, ArtefactDigestsUnchanged) {
    const std::map<std::string, std::string> expected = {
        {"vco", "1d1bece31ddad74e"},
        {"chain16", "3b9b974b7ada639f"},
        {"chain64", "108c4034ec13bd38"},
        {"chain128", "7ae596eeff36be10"},
        {"chain24_shuffled", "46c210ba221a5407"},
    };
    for (const pins::PinLayout& p : pins::pin_layouts()) {
        const xt::Extraction ex = xt::extract(p.layout, kTech);
        EXPECT_EQ(pins::hex64(batch::fnv1a(extraction_text(ex))),
                  expected.at(p.name))
            << p.name;
    }
}
