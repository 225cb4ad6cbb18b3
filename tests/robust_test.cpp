// Failure-containment tests: the deterministic failpoint framework,
// typed per-fault execution budgets, the retry/degradation ladder, the
// quarantined verdict's persistence and cross-revision carry, torn-write
// resume, and the offline store repair command.

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"
#include "anafault/incremental.h"
#include "anafault/retry.h"
#include "batch/result_store.h"
#include "robust/failpoint.h"
#include "spice/engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>

using namespace catlift;
using namespace catlift::anafault;
using netlist::Circuit;
using netlist::SourceSpec;
using netlist::TranSpec;

namespace {

/// Pulsed voltage divider (same fixture as batch_test): cheap to
/// simulate, faults on it clearly detectable at node "out".
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
                       double prob) {
    lift::Fault f;
    f.id = id;
    f.kind = lift::FaultKind::LocalShort;
    f.mechanism = "m1_short";
    f.probability = prob;
    f.net_a = a;
    f.net_b = b;
    return f;
}

lift::FaultList one_fault_list() {
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4e-3));
    return fl;
}

CampaignOptions divider_options() {
    CampaignOptions opt;
    opt.detection.observed = {"out"};
    return opt;
}

std::string temp_store_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("catlift_robust_" + tag + ".store"))
        .string();
}

std::uint64_t hits_of(const std::string& name) {
    for (const robust::FailpointStatus& s : robust::status())
        if (s.name == name) return s.hits;
    return 0;
}

std::uint64_t fired_of(const std::string& name) {
    for (const robust::FailpointStatus& s : robust::status())
        if (s.name == name) return s.fired;
    return 0;
}

/// Every test arms and disarms its own failpoints; the global table must
/// never leak into the next test.
class Failpoints : public ::testing::Test {
protected:
    void SetUp() override { robust::disarm_all(); }
    void TearDown() override { robust::disarm_all(); }
};

} // namespace

// ---------------------------------------------------------------------------
// Failpoint framework

TEST_F(Failpoints, DisarmedSiteIsANoOp) {
    EXPECT_FALSE(robust::armed());
    EXPECT_FALSE(robust::hit("anything").has_value());
}

TEST_F(Failpoints, GenericActionsThrowTheDocumentedTypes) {
    robust::arm("a=error; b=throw, c=oor");
    EXPECT_TRUE(robust::armed());
    EXPECT_THROW(robust::hit("a"), Error);
    EXPECT_THROW(robust::hit("b"), std::runtime_error);
    EXPECT_THROW(robust::hit("c"), std::out_of_range);
    // An armed table never fires sites it does not name.
    EXPECT_FALSE(robust::hit("d").has_value());
    EXPECT_EQ(robust::total_fired(), 3u);
}

TEST_F(Failpoints, SignalActionsReturnToTheSite) {
    robust::arm("s=torn");
    const auto fp = robust::hit("s");
    ASSERT_TRUE(fp.has_value());
    EXPECT_EQ(fp->action, robust::FailAction::Torn);
    robust::arm("k=singular");
    ASSERT_TRUE(robust::hit("k").has_value());
    EXPECT_EQ(robust::hit("k")->action, robust::FailAction::Singular);
}

TEST_F(Failpoints, HitWindowGatesFiring) {
    robust::arm("w=error@2+1");
    EXPECT_FALSE(robust::hit("w").has_value());  // hit 1: before the window
    EXPECT_THROW(robust::hit("w"), Error);       // hit 2: fires
    EXPECT_FALSE(robust::hit("w").has_value());  // hit 3: window closed
    EXPECT_EQ(hits_of("w"), 3u);
    EXPECT_EQ(fired_of("w"), 1u);
}

TEST_F(Failpoints, SleepActionCarriesItsParameter) {
    robust::arm("z=sleep:1");
    // Sleeps 1 ms inside hit() and fires without throwing.
    EXPECT_FALSE(robust::hit("z").has_value());
    EXPECT_EQ(fired_of("z"), 1u);
}

TEST_F(Failpoints, RearmingReplacesAndDisarmResets) {
    robust::arm("x=error");
    EXPECT_THROW(robust::hit("x"), Error);
    robust::arm("x=torn");  // replace: same name, new action, counters reset
    EXPECT_EQ(robust::hit("x")->action, robust::FailAction::Torn);
    robust::disarm_all();
    EXPECT_FALSE(robust::armed());
    EXPECT_TRUE(robust::status().empty());
}

TEST_F(Failpoints, MalformedSpecsThrow) {
    EXPECT_THROW(robust::arm("no-equals-sign"), Error);
    EXPECT_THROW(robust::arm("x=unknown_action"), Error);
    EXPECT_THROW(robust::arm("x=error@zero"), Error);
    EXPECT_THROW(robust::arm("x=error@0"), Error);  // hit index is 1-based
}

// ---------------------------------------------------------------------------
// Execution budgets

static_assert(std::is_base_of_v<Error, spice::BudgetExceeded>,
              "BudgetExceeded must stay an Error so existing per-fault "
              "catches contain it");

TEST(Budget, NrIterationBudgetThrowsTyped) {
    const Circuit c = divider_fixture();
    spice::SimOptions so;
    so.max_nr_total = 1;
    spice::Simulator sim(c, so);
    EXPECT_THROW(sim.dc_op(), spice::BudgetExceeded);
}

TEST(Budget, TranStepBudgetThrowsTyped) {
    const Circuit c = divider_fixture();
    spice::SimOptions so;
    so.max_tran_steps = 3;
    spice::Simulator sim(c, so);
    try {
        sim.tran();
        FAIL() << "transient ran to tstop despite a 3-step budget";
    } catch (const spice::BudgetExceeded& e) {
        EXPECT_NE(std::string(e.what()).find("step budget"),
                  std::string::npos);
    }
}

TEST(Budget, WallDeadlineThrowsTyped) {
    const Circuit c = divider_fixture();
    spice::SimOptions so;
    so.max_wall_seconds = 1e-12;
    spice::Simulator sim(c, so);
    EXPECT_THROW(sim.tran(), spice::BudgetExceeded);
}

TEST(Budget, UnlimitedByDefault) {
    const Circuit c = divider_fixture();
    spice::Simulator sim(c, {});
    EXPECT_NO_THROW(sim.tran());
}

// ---------------------------------------------------------------------------
// Retry/degradation ladder

TEST(RetryLadder, EscalatesInDocumentedOrder) {
    spice::SimOptions base;
    base.bypass = true;
    base.adaptive = true;
    const double g0 = base.gmin;

    const spice::SimOptions a1 = degrade_sim(base, 1);
    EXPECT_FALSE(a1.bypass);
    EXPECT_EQ(a1.device_bypass_tol, 0.0);
    EXPECT_TRUE(a1.adaptive);

    const spice::SimOptions a2 = degrade_sim(base, 2);
    EXPECT_FALSE(a2.bypass);
    EXPECT_FALSE(a2.adaptive);
    EXPECT_EQ(a2.sparse_threshold, base.sparse_threshold);

    const spice::SimOptions a3 = degrade_sim(base, 3);
    EXPECT_EQ(a3.sparse_threshold, std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(a3.symbolic_cache, nullptr);
    EXPECT_EQ(a3.gmin, g0);

    const spice::SimOptions a4 = degrade_sim(base, 4);
    EXPECT_DOUBLE_EQ(a4.gmin, g0 * 10.0);
    const spice::SimOptions a5 = degrade_sim(base, 5);
    EXPECT_DOUBLE_EQ(a5.gmin, g0 * 100.0);

    EXPECT_EQ(attempt_label(0), "base");
    EXPECT_EQ(attempt_label(1), "no-bypass");
    EXPECT_EQ(attempt_label(2), "fixed-grid");
    EXPECT_EQ(attempt_label(3), "dense");
    EXPECT_EQ(attempt_label(4), "gmin-x10");
    EXPECT_EQ(attempt_label(5), "gmin-x100");
}

namespace {

/// Newton solves the campaign's *nominal* simulation performs -- used to
/// open failpoint windows on the faulty attempts only.  Counted with a
/// never-firing window so arming does not perturb the run.
std::uint64_t nominal_newton_hits(const Circuit& c,
                                  const CampaignOptions& opt) {
    robust::disarm_all();
    robust::arm("kernel.newton=error@1000000000");
    const lift::FaultList empty{/*circuit=*/"divider", /*faults=*/{}};
    run_campaign(c, empty, opt);
    const std::uint64_t h = hits_of("kernel.newton");
    robust::disarm_all();
    return h;
}

} // namespace

TEST_F(Failpoints, LadderExhaustionQuarantinesTheFault) {
    const Circuit c = divider_fixture();
    const lift::FaultList fl = one_fault_list();
    CampaignOptions opt = divider_options();
    opt.max_retries = 2;

    const std::uint64_t h = nominal_newton_hits(c, opt);
    ASSERT_GT(h, 0u);
    // Every Newton solve after the nominal run -- i.e. every attempt of
    // the one fault -- throws at entry.
    robust::arm("kernel.newton=error@" + std::to_string(h + 1));

    const CampaignResult res = run_campaign(c, fl, opt);
    ASSERT_EQ(res.results.size(), 1u);
    const FaultSimResult& r = res.results[0];
    EXPECT_FALSE(r.simulated);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 3u);  // base + 2 retries
    // The retry log records the ladder's escalation order.
    const auto p_base = r.retry_log.find("[base]");
    const auto p_nb = r.retry_log.find("[no-bypass]");
    const auto p_fg = r.retry_log.find("[fixed-grid]");
    ASSERT_NE(p_base, std::string::npos) << r.retry_log;
    ASSERT_NE(p_nb, std::string::npos) << r.retry_log;
    ASSERT_NE(p_fg, std::string::npos) << r.retry_log;
    EXPECT_LT(p_base, p_nb);
    EXPECT_LT(p_nb, p_fg);

    EXPECT_EQ(res.quarantined(), 1u);
    EXPECT_EQ(res.failed(), 0u);
    EXPECT_EQ(res.retries(), 2u);
    EXPECT_EQ(res.batch.retries, 2u);
    EXPECT_EQ(res.batch.quarantined, 1u);
    EXPECT_EQ(res.batch.job_errors, 0u);  // contained per fault, not per job
}

namespace {

/// Run `run` over the one-fault list with every Newton solve after the
/// nominal analysis throwing at entry (the nominal's hits are counted on
/// an empty list with a never-firing window first).
template <class Run>
auto run_with_failing_fault(const Run& run) {
    robust::disarm_all();
    robust::arm("kernel.newton=error@1000000000");
    run(lift::FaultList{/*circuit=*/"divider", /*faults=*/{}});
    const std::uint64_t h = hits_of("kernel.newton");
    robust::disarm_all();
    robust::arm("kernel.newton=error@" + std::to_string(h + 1));
    return run(one_fault_list());
}

/// The whole DC/AC ladder at max_retries 4: base, no-bypass, dense,
/// gmin-x10.  The fixed-grid rung changes only the transient's stepping,
/// so it would repeat the no-bypass solve; it is skipped.
void expect_ladder_without_fixed_grid(const batch::FaultSimResult& r,
                                      const batch::BatchStats& b) {
    EXPECT_FALSE(r.simulated);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 4u);
    EXPECT_EQ(r.retry_log.find("[fixed-grid]"), std::string::npos)
        << r.retry_log;
    EXPECT_NE(r.retry_log.find("attempt 3 [dense]"), std::string::npos)
        << r.retry_log;
    EXPECT_NE(r.retry_log.find("attempt 4 [gmin-x10]"), std::string::npos)
        << r.retry_log;
    EXPECT_EQ(b.retries, 3u);
    EXPECT_EQ(b.quarantined, 1u);
}

} // namespace

TEST_F(Failpoints, DcLadderSkipsTheFixedGridRung) {
    const Circuit c = divider_fixture();
    DcScreenOptions opt;
    opt.observed = {"out"};
    opt.max_retries = 4;
    const DcScreenResult res = run_with_failing_fault(
        [&](const lift::FaultList& fl) { return run_dc_screen(c, fl, opt); });
    ASSERT_EQ(res.results.size(), 1u);
    expect_ladder_without_fixed_grid(dc_to_record(res.results[0]),
                                     res.batch);
}

TEST_F(Failpoints, AcLadderSkipsTheFixedGridRung) {
    Circuit c = divider_fixture();
    SourceSpec v1 = SourceSpec::make_dc(5.0);
    v1.ac_mag = 1.0;
    c.devices.front().source = v1;  // V1, AC-driven
    AcCampaignOptions opt;
    opt.observed = {"out"};
    opt.sweep.fstart = 1e3;
    opt.sweep.fstop = 1e8;
    opt.max_retries = 4;
    const AcCampaignResult res = run_with_failing_fault(
        [&](const lift::FaultList& fl) {
            return run_ac_campaign(c, fl, opt);
        });
    ASSERT_EQ(res.results.size(), 1u);
    expect_ladder_without_fixed_grid(ac_to_record(res.results[0]),
                                     res.batch);
}

TEST_F(Failpoints, InjectedOutOfRangeIsContainedAsFailed) {
    // The satellite regression: std::out_of_range escaping a per-fault
    // `catch (const Error&)` used to kill the whole campaign.  With
    // retries off it must retire the fault `failed`, not `quarantined`,
    // and the campaign must complete.
    const Circuit c = divider_fixture();
    const lift::FaultList fl = one_fault_list();
    CampaignOptions opt = divider_options();
    opt.max_retries = 0;

    const std::uint64_t h = nominal_newton_hits(c, opt);
    robust::arm("kernel.newton=oor@" + std::to_string(h + 1));

    const CampaignResult res = run_campaign(c, fl, opt);
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_FALSE(res.results[0].simulated);
    EXPECT_FALSE(res.results[0].quarantined);
    EXPECT_EQ(res.results[0].attempts, 1u);
    EXPECT_NE(res.results[0].error.find("out_of_range"), std::string::npos);
    EXPECT_EQ(res.failed(), 1u);
    EXPECT_EQ(res.quarantined(), 0u);
}

// ---------------------------------------------------------------------------
// Quarantine persistence and cross-revision carry

TEST(Quarantine, RoundTripsThroughTheStore) {
    const std::string path = temp_store_path("quarantine_rt");
    std::filesystem::remove(path);
    batch::FaultSimResult q;
    q.fault_id = 3;
    q.description = "#3 BRI out->0";
    q.probability = 1e-3;
    q.simulated = false;
    q.error = "budget: NR iteration budget of 500 exhausted";
    q.attempts = 5;
    q.quarantined = true;
    q.retry_log = "attempt 1 [base]: boom; attempt 2 [no-bypass]: boom";
    {
        batch::ResultStore store(path, 0x51u);
        store.append(q);
    }
    batch::ResultStore store(path, 0x51u);
    ASSERT_EQ(store.loaded().size(), 1u);
    const batch::FaultSimResult& r = store.loaded()[0];
    EXPECT_FALSE(r.simulated);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 5u);
    EXPECT_EQ(r.retry_log, q.retry_log);
    EXPECT_EQ(r.error, q.error);
    std::filesystem::remove(path);
}

TEST(Quarantine, CarriesAcrossRevisions) {
    const Circuit c = divider_fixture();
    const lift::FaultList fl = one_fault_list();
    const CampaignOptions opt = divider_options();

    // A baseline store whose single record is a quarantined verdict,
    // bound to the exact manifest the incremental engine will expect.
    const std::string bpath = temp_store_path("quarantine_carry");
    std::filesystem::remove(bpath);
    {
        batch::ResultStore store(bpath, campaign_manifest(c, fl, opt));
        batch::FaultSimResult q;
        q.fault_id = fl.faults[0].id;
        q.description = fl.faults[0].describe();
        q.probability = fl.faults[0].probability;
        q.simulated = false;
        q.error = "boom";
        q.attempts = 5;
        q.quarantined = true;
        q.retry_log = "attempt 1 [base]: boom";
        store.append(q);
    }

    IncrementalOptions iopt;
    iopt.campaign = opt;
    iopt.baseline_store = bpath;
    const IncrementalResult inc = run_incremental_campaign(c, fl, fl, iopt);
    EXPECT_EQ(inc.inc.carried, 1u);
    EXPECT_EQ(inc.inc.resimulated, 0u);
    ASSERT_EQ(inc.campaign.results.size(), 1u);
    const FaultSimResult& r = inc.campaign.results[0];
    EXPECT_TRUE(r.quarantined);
    EXPECT_TRUE(r.carried);
    EXPECT_EQ(r.attempts, 5u);
    EXPECT_EQ(inc.campaign.quarantined(), 1u);
    EXPECT_EQ(inc.campaign.batch.scheduled, 0u);  // nothing resimulated
    std::filesystem::remove(bpath);
}

// ---------------------------------------------------------------------------
// Torn writes, durability, repair

TEST_F(Failpoints, TornAppendIsContainedAndResumeRecovers) {
    const Circuit c = divider_fixture();
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4e-3));
    fl.faults.push_back(make_short(2, "in", "out", 3e-3));
    fl.faults.push_back(make_short(3, "in", "0", 2e-3));
    CampaignOptions opt = divider_options();
    opt.threads = 1;  // deterministic append (and failpoint) order

    const CampaignResult ref = run_campaign(c, fl, opt);

    // Tear the second append mid-record: the fault's verdict must survive
    // in memory (campaign completes, identical verdicts), only the store
    // suffers -- and everything after the tear is garbage on disk.
    const std::string path = temp_store_path("torn");
    std::filesystem::remove(path);
    robust::arm("store.append=torn@2+1");
    opt.result_store = path;
    const CampaignResult torn = run_campaign(c, fl, opt);
    EXPECT_EQ(torn.batch.store_errors, 1u);
    ASSERT_EQ(torn.results.size(), ref.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        EXPECT_EQ(torn.results[i].simulated, ref.results[i].simulated);
        EXPECT_EQ(torn.results[i].detect_time, ref.results[i].detect_time);
    }

    // Resume from the torn store: the loader trims at the tear, resumes
    // the one intact record and re-simulates the rest; verdicts are
    // byte-identical to the uninterrupted reference.
    robust::disarm_all();
    opt.resume = true;
    const CampaignResult resumed = run_campaign(c, fl, opt);
    EXPECT_EQ(resumed.batch.resumed, 1u);
    ASSERT_EQ(resumed.results.size(), ref.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        EXPECT_EQ(resumed.results[i].fault_id, ref.results[i].fault_id);
        EXPECT_EQ(resumed.results[i].simulated, ref.results[i].simulated);
        EXPECT_EQ(resumed.results[i].detect_time,
                  ref.results[i].detect_time);
    }
    std::filesystem::remove(path);
}

TEST(StoreDurability, FsyncModeRoundTrips) {
    const std::string path = temp_store_path("fsync");
    std::filesystem::remove(path);
    batch::FaultSimResult r;
    r.fault_id = 1;
    r.simulated = true;
    r.detect_time = 2e-6;
    {
        batch::ResultStore store(path, 7u, batch::Durability::Fsync);
        store.append(r);
    }
    batch::ResultStore store(path, 7u, batch::Durability::Fsync);
    ASSERT_EQ(store.loaded().size(), 1u);
    EXPECT_EQ(store.loaded()[0].fault_id, 1);
    std::filesystem::remove(path);
}

TEST(RepairStore, TrimsToLastGoodRecordAndReports) {
    const std::string path = temp_store_path("repair");
    std::filesystem::remove(path);
    batch::FaultSimResult r;
    r.fault_id = 1;
    r.simulated = true;
    {
        batch::ResultStore store(path, 0x99u);
        store.append(r);
        r.fault_id = 2;
        store.append(r);
    }
    const auto full = std::filesystem::file_size(path);
    // Tear the tail of the second record.
    std::filesystem::resize_file(path, full - 4);

    const batch::RepairReport rep = batch::repair_store(path);
    EXPECT_TRUE(rep.header_ok);
    EXPECT_EQ(rep.records_kept, 1u);
    EXPECT_EQ(rep.bytes_total, static_cast<std::size_t>(full - 4));
    EXPECT_LT(rep.bytes_kept, rep.bytes_total);
    EXPECT_EQ(std::filesystem::file_size(path), rep.bytes_kept);

    // A second repair is a no-op; the repaired store opens cleanly.
    const batch::RepairReport rep2 = batch::repair_store(path);
    EXPECT_EQ(rep2.records_kept, 1u);
    EXPECT_EQ(rep2.bytes_kept, rep2.bytes_total);
    batch::ResultStore store(path, 0x99u);
    ASSERT_EQ(store.loaded().size(), 1u);
    EXPECT_EQ(store.loaded()[0].fault_id, 1);

    EXPECT_THROW(batch::repair_store(path + ".does-not-exist"), Error);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// The nominal record: torn, failed or damaged, it costs a re-simulation of
// the nominal at most -- never a verdict, never the process.

namespace {

lift::FaultList three_fault_list() {
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4e-3));
    fl.faults.push_back(make_short(2, "in", "out", 3e-3));
    fl.faults.push_back(make_short(3, "in", "0", 2e-3));
    return fl;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_same_verdicts(const CampaignResult& a, const CampaignResult& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].fault_id, b.results[i].fault_id);
        EXPECT_EQ(a.results[i].simulated, b.results[i].simulated);
        EXPECT_EQ(a.results[i].detect_time, b.results[i].detect_time);
    }
}

/// A finished three-fault store: its bytes, and where its nominal record
/// (written right after the header) ends.
struct FinishedStore {
    CampaignResult ref;
    std::string bytes;
    std::size_t header_end = 0;
    std::size_t nominal_end = 0;
};

FinishedStore finished_store(const std::string& path,
                             const CampaignOptions& opt) {
    FinishedStore s;
    std::filesystem::remove(path);
    s.ref = run_campaign(divider_fixture(), three_fault_list(), opt);
    s.bytes = read_bytes(path);
    const auto snap = batch::load_store(path);
    EXPECT_TRUE(snap && snap->nominal);
    s.header_end = batch::store_header(snap->manifest).size();
    const std::string rec = batch::encode_record(*snap->nominal);
    EXPECT_EQ(s.bytes.substr(s.header_end, rec.size()), rec);
    s.nominal_end = s.header_end + rec.size();
    return s;
}

} // namespace

TEST(NominalRecord, TornAtEveryByteOffsetTrimsAndResimulates) {
    CampaignOptions opt = divider_options();
    opt.threads = 1;
    opt.result_store = temp_store_path("torn_nominal");
    const FinishedStore s = finished_store(opt.result_store, opt);
    const std::uint64_t manifest =
        campaign_manifest(divider_fixture(), three_fault_list(), opt);

    // The store trims a nominal record torn at any byte back to the header.
    for (std::size_t off = s.header_end; off < s.nominal_end; ++off) {
        write_bytes(opt.result_store, s.bytes.substr(0, off));
        {
            batch::ResultStore store(opt.result_store, manifest);
            SCOPED_TRACE("offset " + std::to_string(off));
            ASSERT_FALSE(store.loaded_nominal().has_value());
            ASSERT_TRUE(store.loaded().empty());
        }
        ASSERT_EQ(std::filesystem::file_size(opt.result_store), s.header_end);
    }

    // The campaign then simulates the nominal again, with the verdicts of
    // the uninterrupted run, and persists it for the next resume.
    opt.resume = true;
    const std::size_t span = s.nominal_end - s.header_end;
    for (std::size_t k = 0; k <= 8; ++k) {
        const std::size_t off = s.header_end + std::min(span - 1, k * span / 8);
        SCOPED_TRACE("offset " + std::to_string(off));
        write_bytes(opt.result_store, s.bytes.substr(0, off));
        const CampaignResult res =
            run_campaign(divider_fixture(), three_fault_list(), opt);
        EXPECT_EQ(res.batch.nominal_resumed, 0u);
        EXPECT_EQ(res.batch.scheduled, res.batch.classes);
        expect_same_verdicts(res, s.ref);
        const CampaignResult again =
            run_campaign(divider_fixture(), three_fault_list(), opt);
        EXPECT_EQ(again.batch.nominal_resumed, 1u);
        EXPECT_EQ(again.batch.scheduled, 0u);
        expect_same_verdicts(again, s.ref);
    }
    std::filesystem::remove(opt.result_store);
}

TEST_F(Failpoints, TornNominalAppendIsContained) {
    CampaignOptions opt = divider_options();
    opt.threads = 1;
    const CampaignResult ref =
        run_campaign(divider_fixture(), three_fault_list(), opt);

    opt.result_store = temp_store_path("torn_nominal_append");
    std::filesystem::remove(opt.result_store);
    robust::arm("store.append_nominal=torn@1");
    const CampaignResult torn =
        run_campaign(divider_fixture(), three_fault_list(), opt);
    robust::disarm_all();
    EXPECT_EQ(torn.batch.store_errors, 1u);
    expect_same_verdicts(torn, ref);

    // Everything after the torn nominal is unreadable: the resume
    // simulates the nominal and every fault again, to the same verdicts.
    opt.resume = true;
    const CampaignResult resumed =
        run_campaign(divider_fixture(), three_fault_list(), opt);
    EXPECT_EQ(resumed.batch.nominal_resumed, 0u);
    EXPECT_EQ(resumed.batch.resumed, 0u);
    expect_same_verdicts(resumed, ref);
    std::filesystem::remove(opt.result_store);
}

TEST(NominalRecord, MutatedPayloadsAreRejectedOrContained) {
    // Seeded mutations of a real nominal payload, re-framed with a valid
    // checksum so they reach the decoder.  Each must be rejected by the
    // decoder (the store ends before it), refused by the policy (the
    // nominal is simulated) or loaded as data -- never a crash, an
    // over-allocation or a hang.  Run under ASan/UBSan by the sanitizer CI.
    CampaignOptions opt = divider_options();
    opt.threads = 1;
    opt.result_store = temp_store_path("mutated_nominal");
    const FinishedStore s = finished_store(opt.result_store, opt);
    const std::string header = s.bytes.substr(0, s.header_end);
    const std::string faults = s.bytes.substr(s.nominal_end);
    const std::string payload = s.bytes.substr(
        s.header_end + sizeof(std::uint32_t),
        s.nominal_end - s.header_end - sizeof(std::uint32_t) -
            sizeof(std::uint64_t));

    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {  // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    };
    opt.resume = true;
    std::size_t rejected = 0, loaded = 0;
    for (int i = 0; i < 240; ++i) {
        std::string pl = payload;
        // Most structure (kind, names, counts) sits in the first bytes.
        const std::size_t reach = next() % 2 ? 64 : pl.size();
        const std::size_t at = next() % reach;
        switch (next() % 4) {
        case 0:
            for (int k = 0; k < 4; ++k)
                pl[(at + next() % 16) % pl.size()] ^=
                    static_cast<char>(1u << (next() % 8));
            break;
        case 1:
            pl.resize(at);
            break;
        case 2: {
            const auto word = static_cast<std::uint32_t>(next());
            if (at + sizeof word <= pl.size())
                std::memcpy(&pl[at], &word, sizeof word);
            break;
        }
        default:
            pl.insert(at, std::string(1 + next() % 9, '\xff'));
        }
        std::string rec;
        const auto len = static_cast<std::uint32_t>(pl.size());
        const std::uint64_t check = batch::fnv1a(pl);
        rec.append(reinterpret_cast<const char*>(&len), sizeof len);
        rec += pl;
        rec.append(reinterpret_cast<const char*>(&check), sizeof check);
        write_bytes(opt.result_store, header + rec + faults);

        SCOPED_TRACE("mutation " + std::to_string(i));
        const auto snap = batch::load_store(opt.result_store);
        ASSERT_TRUE(snap.has_value());
        if (snap->nominal) {
            ++loaded;
            EXPECT_EQ(snap->records.size(), s.ref.results.size());
        } else {
            ++rejected;
            EXPECT_TRUE(snap->records.empty());
        }
        CampaignResult res;
        ASSERT_NO_THROW(res = run_campaign(divider_fixture(),
                                           three_fault_list(), opt));
        ASSERT_EQ(res.results.size(), s.ref.results.size());
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(loaded, 0u);
    std::filesystem::remove(opt.result_store);
}
