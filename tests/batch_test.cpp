// Batch fault-simulation engine tests: work-stealing scheduler, fault
// collapsing, early-abort streaming detection, the append-only result
// store, and the campaign-level guarantees (thread-count determinism,
// crash resume).

#include "anafault/campaign.h"
#include "anafault/comparator.h"
#include "anafault/driver.h"
#include "batch/collapse.h"
#include "batch/result_store.h"
#include "batch/scheduler.h"
#include "core/cat.h"
#include "spice/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

using namespace catlift;
using namespace catlift::anafault;
using netlist::Circuit;
using netlist::SourceSpec;
using netlist::TranSpec;

namespace {

/// Pulsed voltage divider: cheap to simulate, faults on it are clearly
/// detectable (or clearly not) at node "out".
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

/// Mixed fault list with two pairs of electrically equivalent faults.
lift::FaultList divider_faults() {
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4e-3));
    fl.faults.push_back(make_short(2, "in", "out", 3e-3));
    // Same net pair as #1, different mechanism and net order: one class.
    fl.faults.push_back(make_short(3, "0", "out", 2e-3, "m2_short"));
    fl.faults.push_back(make_term_open(4, "R2", 0, "out", 1.5e-3));
    // Stuck-open on the same terminal as #4: one class.
    {
        lift::Fault f;
        f.id = 5;
        f.kind = lift::FaultKind::StuckOpen;
        f.mechanism = "contact";
        f.probability = 1e-3;
        f.victim = lift::TerminalRef{"R2", 0};
        fl.faults.push_back(f);
    }
    // Benign: bridging the two terminals of the already-conducting V1.
    fl.faults.push_back(make_short(6, "in", "0", 0.5e-3));
    return fl;
}

CampaignOptions divider_options() {
    CampaignOptions opt;
    opt.detection.observed = {"out"};
    return opt;
}

std::string temp_store_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("catlift_batch_" + tag + ".store"))
        .string();
}

void expect_same_results(const CampaignResult& a, const CampaignResult& b) {
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
    EXPECT_EQ(a.detected(), b.detected());
    EXPECT_EQ(a.final_coverage(), b.final_coverage());
    EXPECT_EQ(a.weighted_coverage(), b.weighted_coverage());
}

} // namespace

// ---------------------------------------------------------------------------
// Scheduler

TEST(Scheduler, ExecutesEveryJobExactlyOnce) {
    const std::size_t n = 200;
    std::vector<batch::Job> jobs;
    for (std::size_t i = 0; i < n; ++i)
        jobs.push_back(batch::Job{i, static_cast<double>(i % 7)});
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    const batch::Scheduler sched(4);
    const auto stats = sched.run(jobs, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(stats.executed, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(Scheduler, SerialRunsHighestPriorityFirst) {
    std::vector<batch::Job> jobs = {
        {0, 0.1}, {1, 0.9}, {2, 0.5}, {3, 0.9}};
    std::vector<std::size_t> order;
    const batch::Scheduler sched(1);
    sched.run(jobs, [&](std::size_t i) { order.push_back(i); });
    // Descending priority; the stable sort keeps 1 before 3.
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(Scheduler, RecordAndContinueDrainsQueueOnError) {
    const std::size_t n = 50;
    std::vector<batch::Job> jobs;
    for (std::size_t i = 0; i < n; ++i) jobs.push_back(batch::Job{i, 1.0});
    std::vector<std::atomic<int>> hits(n);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        for (auto& h : hits) h = 0;
        const batch::Scheduler sched(threads);
        const auto stats = sched.run(
            jobs,
            [&](std::size_t i) {
                ++hits[i];
                if (i % 10 == 3) throw Error("boom " + std::to_string(i));
            });
        // Every job ran exactly once -- the five throwers were recorded,
        // not allowed to cancel the rest of the queue.
        EXPECT_EQ(stats.executed, n);
        EXPECT_EQ(stats.failed_jobs, 5u);
        EXPECT_FALSE(stats.first_error.empty());
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
    }
}

// ---------------------------------------------------------------------------
// Collapse

TEST(Collapse, ShortsKeyOnSortedNetPair) {
    const auto a = batch::effect_signature(make_short(1, "n5", "n6", 1e-3));
    const auto b =
        batch::effect_signature(make_short(2, "n6", "n5", 2e-3, "poly"));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, batch::effect_signature(make_short(3, "n5", "n7", 1e-3)));
}

TEST(Collapse, StuckOpenAndSingleTerminalLineOpenCollapse) {
    lift::Fault stuck;
    stuck.kind = lift::FaultKind::StuckOpen;
    stuck.victim = lift::TerminalRef{"M3", 0};
    const auto line = make_term_open(2, "M3", 0, "n9", 1e-3);
    EXPECT_EQ(batch::effect_signature(stuck), batch::effect_signature(line));
}

TEST(Collapse, SplitSignatureIgnoresTerminalOrder) {
    lift::Fault a;
    a.kind = lift::FaultKind::SplitNode;
    a.net = "n1";
    a.group_b = {{"M1", 2}, {"M2", 0}};
    lift::Fault b = a;
    b.group_b = {{"M2", 0}, {"M1", 2}};
    EXPECT_EQ(batch::effect_signature(a), batch::effect_signature(b));
}

TEST(Collapse, GroupsEquivalentFaults) {
    const auto fl = divider_faults();
    const auto classes = batch::collapse(fl.faults);
    ASSERT_EQ(classes.size(), 4u);  // 6 faults, two merged pairs
    // Class of fault #1 also holds fault #3 (same net pair).
    EXPECT_EQ(classes[0].members, (std::vector<std::size_t>{0, 2}));
    // Class of fault #4 also holds the stuck-open #5 (same terminal).
    EXPECT_EQ(classes[2].members, (std::vector<std::size_t>{3, 4}));
}

// ---------------------------------------------------------------------------
// Streaming detection and early abort

TEST(StreamingDetector, MatchesPostHocComparator) {
    // Nominal: flat 2.5 V.  Faulty: drifts away from t = 1 us on.
    spice::Waveforms nominal, faulty;
    nominal.add_trace("out");
    faulty.add_trace("out");
    const double dt = 1e-8;
    for (double t = 0; t <= 4e-6 + dt / 2; t += dt)
        nominal.append(t, {2.5});

    DetectionSpec spec;
    spec.observed = {"out"};
    StreamingDetector det(nominal, spec);
    std::optional<double> streamed;
    for (double t = 0; t <= 4e-6 + dt / 2; t += dt) {
        faulty.append(t, {t < 1e-6 ? 2.5 : 7.0});
        if (det.feed(faulty) && !streamed) streamed = det.detect_time();
    }
    const auto post_hoc = detect_time(nominal, faulty, spec);
    ASSERT_TRUE(post_hoc.has_value());
    ASSERT_TRUE(streamed.has_value());
    EXPECT_EQ(*streamed, *post_hoc);
}

TEST(StreamingDetector, NoDetectionStaysClean) {
    spice::Waveforms nominal, faulty;
    nominal.add_trace("out");
    faulty.add_trace("out");
    for (double t = 0; t <= 1e-6; t += 1e-8) {
        nominal.append(t, {2.5});
        faulty.append(t, {2.6});  // within the 2 V tolerance
    }
    DetectionSpec spec;
    spec.observed = {"out"};
    StreamingDetector det(nominal, spec);
    EXPECT_FALSE(det.feed(faulty));
    EXPECT_FALSE(det.detect_time().has_value());
}

TEST(Engine, StepObserverStopsTransient) {
    Circuit c = divider_fixture();
    spice::SimOptions sopt;
    sopt.uic = true;
    spice::Simulator sim(c, sopt);
    const TranSpec ts{1e-8, 4e-6, 0.0};
    const auto wf = sim.tran(
        ts, [](double t, const spice::Waveforms&) { return t < 1e-6; });
    // Stopped at the sample where the observer said no: 1 us of 4 us.
    EXPECT_NEAR(wf.time().back(), 1e-6, 1e-12);
    EXPECT_EQ(sim.stats().steps_saved, 300u);
    EXPECT_EQ(wf.points(), 101u);
}

TEST(Campaign, EarlyAbortKeepsVerdictsAndSavesSteps) {
    const Circuit c = divider_fixture();
    const auto fl = divider_faults();
    const CampaignOptions opt = divider_options();
    const auto res = run_campaign(c, fl, opt);
    ASSERT_EQ(res.results.size(), fl.size());

    // Reference: the untrimmed cycle -- every fault integrated to tstop by
    // the kernel, its verdict taken post hoc by detect_time().
    const spice::Waveforms nominal = spice::Simulator(c, opt.sim).tran();
    for (std::size_t i = 0; i < fl.size(); ++i) {
        SCOPED_TRACE("fault index " + std::to_string(i));
        spice::Simulator sim(inject(c, fl.faults[i], opt.injection), opt.sim);
        const spice::Waveforms full = sim.tran();
        EXPECT_EQ(sim.stats().steps_saved, 0u);
        EXPECT_TRUE(res.results[i].simulated);
        // Byte-identical detection instants, not merely close ones.
        EXPECT_EQ(res.results[i].detect_time,
                  detect_time(nominal, full, opt.detection));
    }

    EXPECT_GT(res.batch.early_aborts, 0u);
    // The detectable faults fire early in the 4 us window; most of the
    // integration should have been skipped.
    EXPECT_GT(res.batch.steps_saved, 100u);
}

TEST(Campaign, CollapseSimulatesEachClassOnce) {
    const Circuit c = divider_fixture();
    const auto fl = divider_faults();
    const auto res = run_campaign(c, fl, divider_options());

    EXPECT_EQ(res.batch.classes, 4u);
    EXPECT_EQ(res.batch.collapsed, 2u);
    EXPECT_EQ(res.batch.scheduled, 4u);

    // Fault #3 shares the verdict of #1 but keeps its own identity, and
    // its kernel cost is attributed to the representative alone.
    const auto& rep = res.results[0];
    const auto& dup = res.results[2];
    ASSERT_TRUE(rep.detect_time.has_value());
    ASSERT_TRUE(dup.detect_time.has_value());
    EXPECT_EQ(*rep.detect_time, *dup.detect_time);
    EXPECT_EQ(dup.fault_id, 3);
    EXPECT_EQ(dup.probability, 2e-3);
    EXPECT_EQ(dup.sim_seconds, 0.0);
    EXPECT_GT(rep.sim_seconds, 0.0);

    // Reference: every class member simulated on its own, in a one-fault
    // campaign -- the verdict a fanned-out copy carries must be its own.
    for (std::size_t i = 0; i < fl.size(); ++i) {
        SCOPED_TRACE("fault index " + std::to_string(i));
        lift::FaultList one;
        one.circuit = fl.circuit;
        one.faults = {fl.faults[i]};
        const auto single = run_campaign(c, one, divider_options());
        ASSERT_EQ(single.results.size(), 1u);
        EXPECT_EQ(single.batch.scheduled, 1u);
        EXPECT_EQ(single.results[0].fault_id, res.results[i].fault_id);
        EXPECT_EQ(single.results[0].simulated, res.results[i].simulated);
        EXPECT_EQ(single.results[0].detect_time, res.results[i].detect_time);
    }
}

// ---------------------------------------------------------------------------
// Determinism (acceptance: byte-identical verdicts at 1, 2 and 8 threads)

TEST(Campaign, DeterministicAcrossThreadCounts) {
    const Circuit c = divider_fixture();
    const auto fl = divider_faults();
    CampaignOptions opt = divider_options();

    opt.threads = 1;
    const auto r1 = run_campaign(c, fl, opt);
    for (const unsigned t : {2u, 8u}) {
        opt.threads = t;
        const auto rt = run_campaign(c, fl, opt);
        SCOPED_TRACE("threads=" + std::to_string(t));
        expect_same_results(r1, rt);
    }
}

TEST(Campaign, VcoDeterministicAcrossThreadCounts) {
    // The paper's VCO campaign end to end: layout-extracted fault list,
    // early abort and collapsing on.  Verdicts and coverage must be
    // byte-identical at every thread count.
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    CampaignOptions opt = e.config.campaign;

    opt.threads = 1;
    const auto r1 = run_campaign(e.sim_circuit, lift_res.faults, opt);
    EXPECT_GT(r1.detected(), 0u);
    for (const unsigned t : {2u, 8u}) {
        opt.threads = t;
        const auto rt = run_campaign(e.sim_circuit, lift_res.faults, opt);
        SCOPED_TRACE("threads=" + std::to_string(t));
        expect_same_results(r1, rt);
    }
}

// ---------------------------------------------------------------------------
// Result store

TEST(ResultStore, RoundTripsRecords) {
    const std::string path = temp_store_path("roundtrip");
    std::filesystem::remove(path);
    FaultSimResult r;
    r.fault_id = 7;
    r.description = "#7 BRI 5->6";
    r.probability = 1.25e-3;
    r.simulated = true;
    r.detect_time = 1.5e-6;
    r.sim_seconds = 0.25;
    r.nr_iterations = 1234;
    r.matrix_size = 17;
    r.steps_saved = 42;
    r.carried = true;  // cross-revision provenance survives the round-trip
    FaultSimResult failed;
    failed.fault_id = 8;
    failed.description = "#8 OPEN";
    failed.simulated = false;
    failed.error = "transient failed to converge at t=0.000001";
    {
        batch::ResultStore store(path, 0xABCDu);
        EXPECT_TRUE(store.loaded().empty());
        store.append(r);
        store.append(failed);
    }
    batch::ResultStore store(path, 0xABCDu);
    ASSERT_EQ(store.loaded().size(), 2u);
    const auto& a = store.loaded()[0];
    EXPECT_EQ(a.fault_id, 7);
    EXPECT_EQ(a.description, r.description);
    EXPECT_EQ(a.probability, r.probability);
    ASSERT_TRUE(a.detect_time.has_value());
    EXPECT_EQ(*a.detect_time, 1.5e-6);
    EXPECT_EQ(a.nr_iterations, 1234u);
    EXPECT_EQ(a.matrix_size, 17u);
    EXPECT_EQ(a.steps_saved, 42u);
    EXPECT_TRUE(a.carried);
    const auto& b = store.loaded()[1];
    EXPECT_FALSE(b.simulated);
    EXPECT_FALSE(b.carried);
    EXPECT_FALSE(b.detect_time.has_value());
    EXPECT_EQ(b.error, failed.error);
    std::filesystem::remove(path);
}

TEST(ResultStore, ManifestMismatchRestartsTheFile) {
    const std::string path = temp_store_path("manifest");
    std::filesystem::remove(path);
    {
        batch::ResultStore store(path, 1);
        FaultSimResult r;
        r.fault_id = 1;
        store.append(r);
    }
    batch::ResultStore other(path, 2);
    EXPECT_TRUE(other.loaded().empty());
    std::filesystem::remove(path);
}

TEST(ResultStore, TruncatedTailLosesAtMostOneRecord) {
    const std::string path = temp_store_path("trunc");
    std::filesystem::remove(path);
    {
        batch::ResultStore store(path, 9);
        for (int i = 1; i <= 3; ++i) {
            FaultSimResult r;
            r.fault_id = i;
            r.description = "fault " + std::to_string(i);
            store.append(r);
        }
    }
    // Chop bytes off the last record, as a kill -9 mid-write would.
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
    {
        batch::ResultStore store(path, 9);
        ASSERT_EQ(store.loaded().size(), 2u);
        EXPECT_EQ(store.loaded()[1].fault_id, 2);
        // The trimmed store accepts appends again.
        FaultSimResult r;
        r.fault_id = 4;
        store.append(r);
    }
    batch::ResultStore store(path, 9);
    ASSERT_EQ(store.loaded().size(), 3u);
    EXPECT_EQ(store.loaded()[2].fault_id, 4);
    std::filesystem::remove(path);
}

TEST(ResultStore, TruncationAtEveryByteOffsetOfTheFinalRecord) {
    // A record torn anywhere mid-write -- length field, payload, checksum,
    // even inside the header -- must cost at most that record: the loader
    // never crashes, never double-counts, and the trimmed store accepts
    // appends again.  Exhaustive over every byte offset of the last record.
    const std::string path = temp_store_path("torn");
    std::filesystem::remove(path);
    std::vector<std::uintmax_t> size_after;  // after header, then per record
    {
        batch::ResultStore store(path, 0xFEEDu);
        size_after.push_back(std::filesystem::file_size(path));
        for (int i = 1; i <= 3; ++i) {
            FaultSimResult r;
            r.fault_id = i;
            r.description = "fault " + std::to_string(i);
            r.error = i == 2 ? "solver diverged" : "";
            r.detect_time = 1e-6 * i;
            store.append(r);
            size_after.push_back(std::filesystem::file_size(path));
        }
    }
    // Keep the intact image; restore + truncate per offset.
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(full.size(), size_after.back());

    for (std::uintmax_t off = 0; off < full.size(); ++off) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(full.data(), static_cast<std::streamsize>(off));
        }
        // How many records are complete within `off` bytes?
        std::size_t want = 0;
        while (want + 1 < size_after.size() && size_after[want + 1] <= off)
            ++want;
        const bool header_intact = off >= size_after.front();

        batch::ResultStore store(path, 0xFEEDu);
        SCOPED_TRACE("offset " + std::to_string(off));
        ASSERT_EQ(store.loaded().size(), header_intact ? want : 0u);
        for (std::size_t k = 0; k < store.loaded().size(); ++k)
            EXPECT_EQ(store.loaded()[k].fault_id, static_cast<int>(k) + 1);

        // The trimmed store accepts a new record and reloads cleanly.
        FaultSimResult r;
        r.fault_id = 99;
        store.append(r);
        batch::ResultStore reopened(path, 0xFEEDu);
        ASSERT_EQ(reopened.loaded().size(),
                  (header_intact ? want : 0u) + 1u);
        EXPECT_EQ(reopened.loaded().back().fault_id, 99);
    }
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// The nominal record (store v7): bit-exact doubles, whatever their value.

namespace {

/// Values a text or rounding round trip would lose: signed zero,
/// subnormals, a NaN payload, infinities and the extremes.
std::vector<double> awkward_doubles(std::size_t salt) {
    std::uint64_t nan_bits = 0x7ff8000000000123ull + salt;
    double nan_payload = 0.0;
    std::memcpy(&nan_payload, &nan_bits, sizeof nan_payload);
    const double sub = std::numeric_limits<double>::denorm_min();
    return {-0.0,
            0.0,
            sub,
            -sub * static_cast<double>(salt + 3),
            std::numeric_limits<double>::min() / 3.0,
            nan_payload,
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::max(),
            1.0 / 3.0 + static_cast<double>(salt)};
}

/// "<prefix><i>" (appended, not operator+: GCC 12 -Wrestrict noise).
std::string numbered(const char* prefix, std::size_t i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Write `rec` (and one fault record after it) into a fresh store, reopen
/// it and return what the store and the read-only snapshot loaded.
std::pair<batch::NominalRecord, batch::NominalRecord> store_round_trip(
    const batch::NominalRecord& rec, const std::string& tag) {
    const std::string path = temp_store_path(tag);
    std::filesystem::remove(path);
    {
        batch::ResultStore store(path, 0x5EEDu);
        store.append_nominal(rec);
        FaultSimResult r;
        r.fault_id = 1;
        store.append(r);
    }
    batch::ResultStore store(path, 0x5EEDu);
    EXPECT_EQ(store.loaded().size(), 1u);
    const auto snap = batch::load_store(path);
    std::filesystem::remove(path);
    if (!store.loaded_nominal() || !snap || !snap->nominal) {
        ADD_FAILURE() << "nominal record not loaded";
        return {};
    }
    return {*store.loaded_nominal(), *snap->nominal};
}

void expect_same_record(const batch::NominalRecord& a,
                        const batch::NominalRecord& b) {
    EXPECT_EQ(a.analysis, b.analysis);
    ASSERT_EQ(a.vectors.size(), b.vectors.size());
    for (std::size_t i = 0; i < a.vectors.size(); ++i) {
        EXPECT_EQ(a.vectors[i].first, b.vectors[i].first);
        EXPECT_TRUE(same_bits(a.vectors[i].second, b.vectors[i].second))
            << "vector " << a.vectors[i].first;
    }
    EXPECT_EQ(a.scalars, b.scalars);
    EXPECT_EQ(batch::encode_record(a), batch::encode_record(b));
}

} // namespace

TEST(ResultStore, NominalRecordRoundTripsBitExactly) {
    batch::NominalRecord rec;
    rec.analysis = "tran";
    for (std::size_t i = 0; i < 1200; ++i)
        rec.vectors.emplace_back(numbered("v", i),
                                 awkward_doubles(i));
    rec.vectors.emplace_back("empty", std::vector<double>{});
    for (std::size_t i = 0; i < 1200; ++i)
        rec.scalars.emplace_back(numbered("rank:n", i),
                                 static_cast<std::int64_t>(1199 - i));
    rec.scalars.emplace_back("lo", std::numeric_limits<std::int64_t>::min());
    rec.scalars.emplace_back("hi", std::numeric_limits<std::int64_t>::max());
    const auto [loaded, snapped] = store_round_trip(rec, "nominal_bits");
    expect_same_record(rec, loaded);
    expect_same_record(rec, snapped);
}

TEST(ResultStore, TranAcDcNominalsRoundTripThroughTheirPolicies) {
    const Circuit c = divider_fixture();

    // Transient: 1000+ traces on one time axis, plus a rank map.
    {
        CampaignOptions opt = divider_options();
        detail::TranPolicy p{c, opt};
        CampaignResult res;
        for (std::size_t j = 0; j < 1100; ++j)
            res.nominal.add_trace(numbered("n", static_cast<std::size_t>(j)));
        for (std::size_t k = 0; k < 10; ++k) {
            std::vector<double> row(1100);
            for (std::size_t j = 0; j < row.size(); ++j)
                row[j] = awkward_doubles(j)[k];
            res.nominal.append(1e-9 * static_cast<double>(k), row);
        }
        spice::SymbolicCache cache;
        for (int j = 0; j < 1100; ++j)
            cache.rank[numbered("n", static_cast<std::size_t>(j))] = 1099 - j;
        batch::NominalRecord rec = detail::TranPolicy::to_nominal(res);
        rec.analysis = "tran";
        detail::put_rank(rec, &cache);
        const batch::NominalRecord back = store_round_trip(rec, "tran").first;

        CampaignResult loaded;
        p.from_nominal(back, loaded);
        EXPECT_TRUE(same_bits(loaded.nominal.time(), res.nominal.time()));
        ASSERT_EQ(loaded.nominal.trace_names(), res.nominal.trace_names());
        for (const std::string& n : res.nominal.trace_names())
            EXPECT_TRUE(same_bits(loaded.nominal.trace(n),
                                  res.nominal.trace(n)))
                << n;
        const auto rank = detail::get_rank(back);
        ASSERT_NE(rank, nullptr);
        EXPECT_EQ(rank->rank, cache.rank);
    }

    // AC: complex responses with signed zeros and subnormals in both parts.
    {
        AcCampaignOptions opt;
        opt.observed = {"n0"};
        detail::AcPolicy p{c, opt};
        AcCampaignResult res;
        for (std::size_t j = 0; j < 1100; ++j)
            res.nominal.add_node(numbered("n", static_cast<std::size_t>(j)));
        for (std::size_t k = 0; k < 10; ++k) {
            std::vector<std::complex<double>> row(1100);
            for (std::size_t j = 0; j < row.size(); ++j)
                row[j] = {awkward_doubles(j)[k], awkward_doubles(j + 1)[9 - k]};
            res.nominal.append(1e3 * static_cast<double>(k + 1), row);
        }
        batch::NominalRecord rec = detail::AcPolicy::to_nominal(res);
        rec.analysis = "ac";
        const batch::NominalRecord back = store_round_trip(rec, "ac").first;

        AcCampaignResult loaded;
        p.from_nominal(back, loaded);
        EXPECT_TRUE(same_bits(loaded.nominal.freq(), res.nominal.freq()));
        ASSERT_EQ(loaded.nominal.node_names(), res.nominal.node_names());
        for (const std::string& n : res.nominal.node_names()) {
            const auto& a = loaded.nominal.response(n);
            const auto& b = res.nominal.response(n);
            ASSERT_EQ(a.size(), b.size());
            EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                  a.size() * sizeof(std::complex<double>)),
                      0)
                << n;
        }
        EXPECT_EQ(detail::get_rank(back), nullptr);  // none was put
    }

    // DC: the operating point map and the cold solve's iteration count.
    {
        DcScreenOptions opt;
        opt.observed = {"n7"};
        detail::DcPolicy p{c, opt};
        DcScreenResult res;
        const std::vector<double> vals = awkward_doubles(0);
        for (std::size_t j = 0; j < 1100; ++j)
            res.nominal_op[numbered("n", static_cast<std::size_t>(j))] = vals[j % vals.size()];
        res.nominal_iterations = 17;
        batch::NominalRecord rec = detail::DcPolicy::to_nominal(res);
        rec.analysis = "dc";
        const batch::NominalRecord back = store_round_trip(rec, "dc").first;

        DcScreenResult loaded;
        p.from_nominal(back, loaded);
        EXPECT_EQ(loaded.nominal_iterations, 17);
        ASSERT_EQ(loaded.nominal_op.size(), res.nominal_op.size());
        for (const auto& [node, v] : res.nominal_op)
            EXPECT_EQ(std::memcmp(&loaded.nominal_op.at(node), &v, sizeof v),
                      0)
                << node;
    }
}

// ---------------------------------------------------------------------------
// Crash-resume (acceptance: a killed campaign completes without
// re-simulating finished faults)

TEST(Campaign, ResumesAfterTruncatedStore) {
    const Circuit c = divider_fixture();
    const auto fl = divider_faults();
    const std::string path = temp_store_path("resume");
    std::filesystem::remove(path);

    CampaignOptions opt = divider_options();
    opt.result_store = path;
    const auto reference = run_campaign(c, fl, opt);
    EXPECT_EQ(reference.batch.resumed, 0u);

    // Simulate a crash mid-write: drop the last third of the fault
    // records (the nominal record ahead of them stays intact).
    std::uintmax_t fault_bytes = 0;
    for (const FaultSimResult& r : reference.results)
        fault_bytes += batch::encode_record(r).size();
    const auto full_size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full_size - fault_bytes / 3);

    CampaignOptions resume_opt = opt;
    resume_opt.resume = true;
    const auto resumed = run_campaign(c, fl, resume_opt);
    expect_same_results(reference, resumed);
    EXPECT_GT(resumed.batch.resumed, 0u);
    // Finished faults were not re-simulated: fewer kernel runs than
    // equivalence classes.
    EXPECT_LT(resumed.batch.scheduled, resumed.batch.classes);

    // A third run over the now-complete store simulates nothing at all.
    const auto warm = run_campaign(c, fl, resume_opt);
    expect_same_results(reference, warm);
    EXPECT_EQ(warm.batch.scheduled, 0u);
    EXPECT_EQ(warm.batch.resumed, fl.size());
    std::filesystem::remove(path);
}

TEST(Campaign, FreshRunIgnoresStaleStore) {
    const Circuit c = divider_fixture();
    const auto fl = divider_faults();
    const std::string path = temp_store_path("stale");
    std::filesystem::remove(path);

    CampaignOptions opt = divider_options();
    opt.result_store = path;
    run_campaign(c, fl, opt);

    // Different tolerance -> different manifest -> nothing resumes.
    CampaignOptions changed = opt;
    changed.resume = true;
    changed.detection.v_tol = 0.5;
    const auto res = run_campaign(c, fl, changed);
    EXPECT_EQ(res.batch.resumed, 0u);
    EXPECT_EQ(res.batch.scheduled, res.batch.classes);

    // Solver knobs are part of the manifest too: different numerics mean
    // different waveforms, so the store must restart.
    CampaignOptions numerics = opt;
    numerics.resume = true;
    numerics.sim.lte_tol = 1e-3;
    const auto res2 = run_campaign(c, fl, numerics);
    EXPECT_EQ(res2.batch.resumed, 0u);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// The VCO campaign's "collapsed: 0" (the anafaultc summary's batch line)
//
// Investigated: the layout extractor already merges every bridge between
// the same net pair (across layers) into one fault, so the 64-fault VCO
// list genuinely contains 64 distinct electrical effects -- collapsing
// has nothing to fold, and "collapsed: 0" is correct behaviour, not a
// signature-canonicalization bug.  The first test pins that property of
// the extraction; the second proves collapse *does* fire on this very
// campaign the moment two equivalent faults exist.

TEST(Collapse, VcoCampaignFaultsAreAllDistinctEffects) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    std::set<std::string> sigs;
    for (const auto& f : lift_res.faults.faults)
        sigs.insert(batch::effect_signature(f));
    EXPECT_EQ(sigs.size(), lift_res.faults.size());
    EXPECT_EQ(batch::collapse(lift_res.faults.faults).size(),
              lift_res.faults.size());
}

TEST(Campaign, VcoConstructedEquivalentFaultsCollapse) {
    // Clone one extracted bridge as a different-layer mechanism between
    // the same nets: electrically identical, so the campaign must
    // simulate the class once and fan the verdict out.
    const core::VcoExperiment e = core::make_vco_experiment();
    auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    lift::FaultList faults = lift_res.faults;
    ASSERT_FALSE(faults.faults.empty());
    lift::Fault dup = faults.faults.front();
    dup.id = 9001;
    dup.mechanism = "metal1_short";  // same nets, different layer/mechanism
    faults.faults.push_back(dup);

    const auto res = run_campaign(e.sim_circuit, faults, e.config.campaign);
    EXPECT_EQ(res.batch.collapsed, 1u);
    EXPECT_EQ(res.batch.classes, faults.size() - 1);
    EXPECT_EQ(res.batch.scheduled, faults.size() - 1);

    const auto& rep = res.results.front();
    const auto& fan = res.results.back();
    EXPECT_EQ(fan.fault_id, 9001);
    EXPECT_EQ(rep.detect_time.has_value(), fan.detect_time.has_value());
    if (rep.detect_time) {
        EXPECT_EQ(*rep.detect_time, *fan.detect_time);
    }
    // Kernel cost stays attributed to the representative alone.
    EXPECT_EQ(fan.sim_seconds, 0.0);
}
