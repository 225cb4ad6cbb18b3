// Incremental cross-revision campaign engine: fault-list diff edge cases,
// the deterministic layout-revision perturber, carry-over safety (manifest
// guard) and the headline guarantee -- incremental verdicts on a revision
// are identical to a cold full campaign on that revision.

#include "anafault/incremental.h"
#include "batch/result_store.h"
#include "core/cat.h"
#include "layout/revise.h"
#include "lift/extract_faults.h"
#include "robust/failpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

using namespace catlift;
using namespace catlift::anafault;
using netlist::Circuit;
using netlist::SourceSpec;
using netlist::TranSpec;

namespace {

lift::Fault make_short(int id, const std::string& a, const std::string& b,
                       double prob, const std::string& mech = "m1_short") {
    lift::Fault f;
    f.id = id;
    f.kind = lift::FaultKind::LocalShort;
    f.mechanism = mech;
    f.probability = prob;
    f.net_a = a;
    f.net_b = b;
    return f;
}

lift::Fault make_term_open(int id, const std::string& dev, int term,
                           const std::string& net, double prob) {
    lift::Fault f;
    f.id = id;
    f.kind = lift::FaultKind::LineOpen;
    f.mechanism = "cut";
    f.probability = prob;
    f.net = net;
    f.group_b = {lift::TerminalRef{dev, term}};
    return f;
}

/// Same divider fixture as batch_test: cheap, clearly detectable faults.
Circuit divider_fixture() {
    Circuit c;
    c.title = "divider";
    c.add_vsource("V1", "in", "0",
                  SourceSpec::make_pulse(0, 5, 0, 1e-9, 1e-9, 1e-6, 2e-6));
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_resistor("R2", "out", "0", 1e3);
    c.add_capacitor("C1", "out", "0", 1e-10);
    c.tran = TranSpec{1e-8, 4e-6, 0.0};
    return c;
}

lift::FaultList divider_baseline() {
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4e-3));
    fl.faults.push_back(make_short(2, "in", "out", 3e-3));
    fl.faults.push_back(make_short(3, "in", "0", 2e-3));
    fl.faults.push_back(make_term_open(4, "R2", 0, "out", 1.5e-3));
    fl.faults.push_back(make_term_open(5, "C1", 1, "0", 1e-3));
    fl.faults.push_back(make_term_open(6, "R1", 0, "in", 0.5e-3));
    return fl;
}

/// The revision exercises all four diff classes against divider_baseline:
/// #6 removed, #2's probability moved 50% (resimulated), #1's moved 2.5%
/// (carried), #7 is new (resimulated), #3/#4/#5 untouched (carried).
lift::FaultList divider_revision() {
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4.1e-3));
    fl.faults.push_back(make_short(2, "in", "out", 4.5e-3));
    fl.faults.push_back(make_short(3, "in", "0", 2e-3));
    fl.faults.push_back(make_term_open(4, "R2", 0, "out", 1.5e-3));
    fl.faults.push_back(make_term_open(5, "C1", 1, "0", 1e-3));
    fl.faults.push_back(make_term_open(7, "R1", 1, "out", 0.8e-3));
    return fl;
}

CampaignOptions divider_options() {
    CampaignOptions opt;
    opt.detection.observed = {"out"};
    return opt;
}

std::string temp_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("catlift_incr_" + tag + ".store"))
        .string();
}

void expect_same_verdicts(const CampaignResult& a, const CampaignResult& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        SCOPED_TRACE("fault index " + std::to_string(i));
        EXPECT_EQ(a.results[i].fault_id, b.results[i].fault_id);
        EXPECT_EQ(a.results[i].description, b.results[i].description);
        EXPECT_EQ(a.results[i].probability, b.results[i].probability);
        EXPECT_EQ(a.results[i].simulated, b.results[i].simulated);
        ASSERT_EQ(a.results[i].detect_time.has_value(),
                  b.results[i].detect_time.has_value());
        if (a.results[i].detect_time) {
            // Byte-identical verdicts, not merely close ones.
            EXPECT_EQ(*a.results[i].detect_time, *b.results[i].detect_time);
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// diff_faultlists edge cases -- the incremental engine's foundation.

TEST(FaultListDiff, EmptyLists) {
    const lift::FaultList none;
    const lift::FaultList some = divider_baseline();

    const auto both_empty = lift::diff_faultlists(none, none);
    EXPECT_TRUE(both_empty.only_a.empty());
    EXPECT_TRUE(both_empty.only_b.empty());
    EXPECT_TRUE(both_empty.probability_changed.empty());
    EXPECT_TRUE(both_empty.carried.empty());

    const auto a_empty = lift::diff_faultlists(none, some);
    EXPECT_TRUE(a_empty.only_a.empty());
    EXPECT_EQ(a_empty.only_b.size(), some.size());
    EXPECT_TRUE(a_empty.carried.empty());

    const auto b_empty = lift::diff_faultlists(some, none);
    EXPECT_EQ(b_empty.only_a.size(), some.size());
    EXPECT_TRUE(b_empty.only_b.empty());
    EXPECT_TRUE(b_empty.carried.empty());
}

TEST(FaultListDiff, RelTolBoundaryIsInclusive) {
    // A move of *exactly* rel_tol is still "carried": the comparison is
    // strictly-greater, pinned here because the incremental engine's
    // carry/resimulate split rides on it.  Binary-exact values (tol 2^-4,
    // probabilities 1 and 1-2^-4) so "exactly at the boundary" is not at
    // the mercy of decimal rounding.
    lift::FaultList a, b;
    a.faults.push_back(make_short(1, "x", "y", 1.0));
    b.faults.push_back(make_short(1, "x", "y", 0.9375));
    const auto at_tol = lift::diff_faultlists(a, b, 0.0625);
    EXPECT_TRUE(at_tol.probability_changed.empty());
    ASSERT_EQ(at_tol.carried.size(), 1u);
    EXPECT_EQ(at_tol.carried[0].first.probability, 1.0);
    EXPECT_EQ(at_tol.carried[0].second.probability, 0.9375);

    b.faults[0].probability = 0.9374;  // just beyond
    const auto beyond = lift::diff_faultlists(a, b, 0.0625);
    ASSERT_EQ(beyond.probability_changed.size(), 1u);
    EXPECT_TRUE(beyond.carried.empty());

    // The default 5% band, clear of the representability boundary.
    b.faults[0].probability = 0.952;
    EXPECT_EQ(lift::diff_faultlists(a, b).carried.size(), 1u);
    b.faults[0].probability = 0.948;
    EXPECT_EQ(lift::diff_faultlists(a, b).probability_changed.size(), 1u);
}

TEST(FaultListDiff, SignatureIgnoresMechanismIdAndNetOrder) {
    lift::FaultList a, b;
    a.faults.push_back(make_short(1, "n5", "n6", 1e-3, "metal1_short"));
    b.faults.push_back(make_short(9, "n6", "n5", 1e-3, "poly_short"));
    const auto d = lift::diff_faultlists(a, b);
    EXPECT_TRUE(d.only_a.empty());
    EXPECT_TRUE(d.only_b.empty());
    ASSERT_EQ(d.carried.size(), 1u);
}

TEST(FaultListDiff, DuplicateSignaturesWithinOneListLastWins) {
    // Two same-signature faults in b: every matching a-fault pairs with
    // the *last* b occurrence (deterministic; extracted lists never
    // contain duplicates, but hand-written ones may).
    lift::FaultList a, b;
    a.faults.push_back(make_short(1, "x", "y", 1.0));
    b.faults.push_back(make_short(1, "x", "y", 0.2, "first"));
    b.faults.push_back(make_short(2, "y", "x", 1.0, "last"));
    const auto d = lift::diff_faultlists(a, b);
    EXPECT_TRUE(d.only_a.empty());
    EXPECT_TRUE(d.only_b.empty());  // both b faults share the matched key
    ASSERT_EQ(d.carried.size(), 1u);
    EXPECT_EQ(d.carried[0].second.mechanism, "last");

    // Duplicates in a: each a occurrence is classified independently.
    lift::FaultList a2;
    a2.faults.push_back(make_short(1, "x", "y", 1.0, "one"));
    a2.faults.push_back(make_short(2, "x", "y", 1.0, "two"));
    const auto d2 = lift::diff_faultlists(a2, b);
    EXPECT_EQ(d2.carried.size(), 2u);
}

// ---------------------------------------------------------------------------
// Layout-revision perturber.

TEST(ReviseLayout, DeterministicAndShapePreserving) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const layout::RevisionSpec spec = layout::vco_revision_spec();
    const layout::Layout r1 = layout::revise_layout(e.layout, spec);
    const layout::Layout r2 = layout::revise_layout(e.layout, spec);
    EXPECT_EQ(layout::write_layout(r1), layout::write_layout(r2));
    EXPECT_NE(layout::write_layout(r1), layout::write_layout(e.layout));
    // make_redundant adds one cut, make_single removes one.
    EXPECT_EQ(r1.size(), e.layout.size());
}

TEST(ReviseLayout, RejectsUnknownTargets) {
    const core::VcoExperiment e = core::make_vco_experiment();
    layout::RevisionSpec bad_net;
    bad_net.widen_tracks = {{"no_such_net", 1000}};
    EXPECT_THROW(layout::revise_layout(e.layout, bad_net), Error);

    layout::RevisionSpec bad_term;
    bad_term.shift_contacts = {{"M99:d", 300}};
    EXPECT_THROW(layout::revise_layout(e.layout, bad_term), Error);

    // make_redundant needs a single cut (M5:d already has a pair);
    // make_single needs a pair (M11:g has a single cut).
    layout::RevisionSpec already_pair;
    already_pair.make_redundant = {"M5:d"};
    EXPECT_THROW(layout::revise_layout(e.layout, already_pair), Error);
    layout::RevisionSpec already_single;
    already_single.make_single = {"M11:g"};
    EXPECT_THROW(layout::revise_layout(e.layout, already_single), Error);
}

TEST(ReviseLayout, VcoRevisionProducesAllFourDiffClasses) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto base =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    const auto rev = lift::extract_faults(
        layout::revise_layout(e.layout, layout::vco_revision_spec()),
        e.config.tech, e.config.lift);
    const auto d = lift::diff_faultlists(base.faults, rev.faults);
    EXPECT_EQ(d.only_a.size(), 1u);                // removed stuck-open
    EXPECT_EQ(d.only_b.size(), 1u);                // added stuck-open
    EXPECT_EQ(d.probability_changed.size(), 2u);   // widened-track bridges
    // The revision is a perturbation, not a redesign: most faults carry.
    EXPECT_EQ(d.carried.size(), 61u);
}

// ---------------------------------------------------------------------------
// Incremental engine on the divider fixture.

TEST(Incremental, CarriesUnchangedAndResimulatesRemainder) {
    const Circuit c = divider_fixture();
    const auto base = divider_baseline();
    const auto rev = divider_revision();
    const std::string bpath = temp_path("div_base");
    std::filesystem::remove(bpath);

    CampaignOptions copt = divider_options();
    copt.result_store = bpath;
    const auto base_res = run_campaign(c, base, copt);
    ASSERT_EQ(base_res.results.size(), base.size());

    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.baseline_store = bpath;
    const auto inc = run_incremental_campaign(c, base, rev, iopt);

    EXPECT_TRUE(inc.inc.baseline_manifest_matched);
    EXPECT_EQ(inc.inc.carried, 4u);        // #1 (2.5% move), #3, #4, #5
    EXPECT_EQ(inc.inc.resimulated, 2u);    // #2 (50% move), #7 (new)
    EXPECT_EQ(inc.inc.added, 1u);
    EXPECT_EQ(inc.inc.removed, 1u);
    EXPECT_EQ(inc.inc.probability_changed, 1u);
    // Only the remainder reached the kernel.
    EXPECT_EQ(inc.campaign.batch.scheduled, 2u);

    // The merged result is byte-identical (in verdicts) to a cold full
    // campaign on the revision.
    const auto cold = run_campaign(c, rev, divider_options());
    expect_same_verdicts(cold, inc.campaign);

    // Provenance: carried flags exactly on the carried slots, and the
    // carried identity fields are the *revision's*.
    for (const auto& r : inc.campaign.results) {
        const bool expect_carried =
            r.fault_id == 1 || r.fault_id == 3 || r.fault_id == 4 ||
            r.fault_id == 5;
        EXPECT_EQ(r.carried, expect_carried) << "fault " << r.fault_id;
    }
    EXPECT_EQ(inc.campaign.results[0].probability, 4.1e-3);

    std::filesystem::remove(bpath);
}

TEST(Incremental, KnobChangeBlocksCarrying) {
    const Circuit c = divider_fixture();
    const auto base = divider_baseline();
    const auto rev = divider_revision();
    const std::string bpath = temp_path("div_knob");
    std::filesystem::remove(bpath);

    CampaignOptions copt = divider_options();
    copt.result_store = bpath;
    run_campaign(c, base, copt);

    // A solver knob differing from the one the baseline store was written
    // under changes waveforms -> nothing may carry, the baseline's
    // nominal included: the merged store gets a freshly simulated one.
    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.campaign.sim.reltol = 1e-4;
    iopt.campaign.result_store = temp_path("div_knob_merged");
    iopt.baseline_store = bpath;
    const auto inc = run_incremental_campaign(c, base, rev, iopt);
    EXPECT_FALSE(inc.inc.baseline_manifest_matched);
    EXPECT_FALSE(inc.inc.carry_block_reason.empty());
    EXPECT_EQ(inc.inc.carried, 0u);
    EXPECT_EQ(inc.inc.resimulated, rev.size());
    EXPECT_EQ(inc.campaign.batch.nominal_resumed, 0u);
    std::filesystem::remove(iopt.campaign.result_store);

    // Verdicts still equal a cold run under the *new* knobs.
    CampaignOptions cold_opt = divider_options();
    cold_opt.sim.reltol = 1e-4;
    const auto cold = run_campaign(c, rev, cold_opt);
    expect_same_verdicts(cold, inc.campaign);
    std::filesystem::remove(bpath);
}

namespace {

/// kernel.newton hits of `run`, counted with a never-firing window.
template <class Run>
std::uint64_t newton_hits(Run run) {
    robust::arm("kernel.newton=error@1000000000");
    run();
    std::uint64_t hits = 0;
    for (const robust::FailpointStatus& s : robust::status())
        if (s.name == "kernel.newton") hits = s.hits;
    robust::disarm_all();
    return hits;
}

} // namespace

TEST(Incremental, MatchedBaselineReachesTheKernelOnlyForResimulatedFaults) {
    const Circuit c = divider_fixture();
    const auto base = divider_baseline();
    const auto rev = divider_revision();
    const std::string bpath = temp_path("div_nominal_base");
    std::filesystem::remove(bpath);
    CampaignOptions copt = divider_options();
    copt.result_store = bpath;
    run_campaign(c, base, copt);

    // What the two resimulated faults (#2, #7) cost on their own: a cold
    // campaign over just them, minus its nominal.
    lift::FaultList resim{rev.circuit, {rev.faults[1], rev.faults[5]}};
    const std::uint64_t nominal = newton_hits(
        [&] { run_campaign(c, {rev.circuit, {}}, divider_options()); });
    const std::uint64_t faults = newton_hits(
        [&] { run_campaign(c, resim, divider_options()); }) - nominal;
    ASSERT_GT(nominal, 0u);
    ASSERT_GT(faults, 0u);

    // The merged store is seeded with the baseline's nominal, so the
    // revision's kernel work is exactly the resimulated faults'.
    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.campaign.result_store = temp_path("div_nominal_merged");
    iopt.baseline_store = bpath;
    IncrementalResult inc;
    EXPECT_EQ(newton_hits([&] {
                  inc = run_incremental_campaign(c, base, rev, iopt);
              }),
              faults);
    EXPECT_TRUE(inc.inc.baseline_manifest_matched);
    EXPECT_EQ(inc.inc.resimulated, 2u);
    EXPECT_EQ(inc.campaign.batch.nominal_resumed, 1u);
    expect_same_verdicts(run_campaign(c, rev, divider_options()),
                         inc.campaign);

    // The merged store keeps the nominal: as the next revision's baseline
    // it carries everything, and nothing at all reaches the kernel.
    const auto merged = batch::load_store(iopt.campaign.result_store);
    ASSERT_TRUE(merged && merged->nominal);
    IncrementalOptions next = iopt;
    next.baseline_store = iopt.campaign.result_store;
    next.campaign.result_store = temp_path("div_nominal_next");
    EXPECT_EQ(newton_hits([&] {
                  inc = run_incremental_campaign(c, rev, rev, next);
              }),
              0u);
    EXPECT_EQ(inc.inc.carried, rev.size());
    EXPECT_EQ(inc.campaign.batch.nominal_resumed, 1u);
    for (const std::string& p : {bpath, iopt.campaign.result_store,
                                 next.campaign.result_store})
        std::filesystem::remove(p);
}

TEST(Incremental, MissingBaselineStoreResimulatesEverything) {
    const Circuit c = divider_fixture();
    const auto base = divider_baseline();
    const auto rev = divider_revision();

    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.baseline_store = temp_path("does_not_exist");
    std::filesystem::remove(iopt.baseline_store);
    const auto inc = run_incremental_campaign(c, base, rev, iopt);
    EXPECT_EQ(inc.inc.carried, 0u);
    EXPECT_EQ(inc.inc.resimulated, rev.size());
    const auto cold = run_campaign(c, rev, divider_options());
    expect_same_verdicts(cold, inc.campaign);
}

TEST(Incremental, MergedStoreResumesAndSeedsTheNextRevision) {
    const Circuit c = divider_fixture();
    const auto base = divider_baseline();
    const auto rev = divider_revision();
    const std::string bpath = temp_path("div_chain_base");
    const std::string mpath = temp_path("div_chain_merged");
    std::filesystem::remove(bpath);
    std::filesystem::remove(mpath);

    CampaignOptions copt = divider_options();
    copt.result_store = bpath;
    run_campaign(c, base, copt);

    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.campaign.result_store = mpath;
    iopt.baseline_store = bpath;
    const auto inc = run_incremental_campaign(c, base, rev, iopt);
    EXPECT_EQ(inc.campaign.batch.scheduled, 2u);

    // The merged store holds the *full* revision campaign: a warm re-run
    // resumes every fault and schedules no kernel work.
    IncrementalOptions warm = iopt;
    warm.campaign.resume = true;
    const auto rerun = run_incremental_campaign(c, base, rev, warm);
    EXPECT_EQ(rerun.campaign.batch.scheduled, 0u);
    expect_same_verdicts(inc.campaign, rerun.campaign);

    // And it serves as the baseline of the next revision: rev -> rev2
    // drops fault #7, everything else carries straight from the merge.
    lift::FaultList rev2 = rev;
    rev2.faults.pop_back();
    IncrementalOptions next;
    next.campaign = divider_options();
    next.baseline_store = mpath;
    const auto inc2 = run_incremental_campaign(c, rev, rev2, next);
    EXPECT_TRUE(inc2.inc.baseline_manifest_matched);
    EXPECT_EQ(inc2.inc.carried, rev2.size());
    EXPECT_EQ(inc2.inc.resimulated, 0u);
    EXPECT_EQ(inc2.inc.removed, 1u);
    const auto cold2 = run_campaign(c, rev2, divider_options());
    expect_same_verdicts(cold2, inc2.campaign);

    std::filesystem::remove(bpath);
    std::filesystem::remove(mpath);
}

TEST(Incremental, CrashedMergedStoreLosesAtMostOneRecord) {
    const Circuit c = divider_fixture();
    const auto base = divider_baseline();
    const auto rev = divider_revision();
    const std::string bpath = temp_path("div_crash_base");
    const std::string mpath = temp_path("div_crash_merged");
    std::filesystem::remove(bpath);
    std::filesystem::remove(mpath);

    CampaignOptions copt = divider_options();
    copt.result_store = bpath;
    run_campaign(c, base, copt);

    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.campaign.result_store = mpath;
    iopt.baseline_store = bpath;
    const auto inc = run_incremental_campaign(c, base, rev, iopt);

    // Tear the merged log mid-record, as a kill -9 would.
    std::filesystem::resize_file(mpath,
                                 std::filesystem::file_size(mpath) - 5);
    IncrementalOptions resume = iopt;
    resume.campaign.resume = true;
    const auto rerun = run_incremental_campaign(c, base, rev, resume);
    expect_same_verdicts(inc.campaign, rerun.campaign);
    // At most the torn record's fault was re-simulated.
    EXPECT_LE(rerun.campaign.batch.scheduled, 1u);

    std::filesystem::remove(bpath);
    std::filesystem::remove(mpath);
}

TEST(Incremental, ResumeWithoutMergedStoreIsRejected) {
    const Circuit c = divider_fixture();
    IncrementalOptions iopt;
    iopt.campaign = divider_options();
    iopt.campaign.resume = true;  // no result_store path
    EXPECT_THROW(run_incremental_campaign(c, divider_baseline(),
                                          divider_revision(), iopt),
                 Error);
}

// ---------------------------------------------------------------------------
// Acceptance: the VCO revision carries 61 of its 64 faults and the merged
// verdicts are identical to a cold full campaign on the revision.

TEST(Incremental, VcoRevisionCarriesHalfAndMatchesColdRun) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto base =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    const auto rev = lift::extract_faults(
        layout::revise_layout(e.layout, layout::vco_revision_spec()),
        e.config.tech, e.config.lift);

    const std::string bpath = temp_path("vco_base");
    const std::string mpath = temp_path("vco_merged");
    std::filesystem::remove(bpath);
    std::filesystem::remove(mpath);
    CampaignOptions copt = e.config.campaign;
    copt.result_store = bpath;
    run_campaign(e.sim_circuit, base.faults, copt);

    IncrementalOptions iopt;
    iopt.campaign = e.config.campaign;
    iopt.campaign.result_store = mpath;
    iopt.baseline_store = bpath;
    const auto inc =
        run_incremental_campaign(e.sim_circuit, base.faults, rev.faults, iopt);

    EXPECT_TRUE(inc.inc.baseline_manifest_matched);
    EXPECT_EQ(inc.inc.carried, 61u);
    EXPECT_EQ(inc.inc.resimulated, 3u);
    EXPECT_EQ(inc.inc.added, 1u);
    EXPECT_EQ(inc.inc.removed, 1u);
    EXPECT_EQ(inc.inc.probability_changed, 2u);
    EXPECT_EQ(inc.campaign.detected(), 64u);
    EXPECT_EQ(inc.inc.carried + inc.inc.resimulated, rev.faults.size());
    EXPECT_EQ(inc.campaign.batch.scheduled, inc.inc.resimulated);

    const auto cold = run_campaign(e.sim_circuit, rev.faults,
                                   e.config.campaign);
    expect_same_verdicts(cold, inc.campaign);

    // The on-disk merged store holds every revision fault's verdict,
    // identical to the cold run's, under the revision campaign manifest.
    const auto snap = batch::load_store(mpath);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->manifest, campaign_manifest(e.sim_circuit, rev.faults,
                                                e.config.campaign));
    ASSERT_EQ(snap->records.size(), rev.faults.size());
    std::map<int, const batch::FaultSimResult*> by_id;
    for (const auto& r : snap->records) by_id.emplace(r.fault_id, &r);
    for (const auto& c : cold.results) {
        const auto it = by_id.find(c.fault_id);
        ASSERT_NE(it, by_id.end()) << "fault " << c.fault_id;
        EXPECT_EQ(it->second->detect_time, c.detect_time);
        EXPECT_EQ(it->second->simulated, c.simulated);
    }
    std::filesystem::remove(bpath);
    std::filesystem::remove(mpath);
}
