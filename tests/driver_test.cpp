// The one campaign driver behind tran, AC and DC.
//
// Two kinds of checks:
//
//  * Cross-commit identity pins: manifest hashes and verdict digests of
//    the OTA and VCO default campaigns, as literals.  A refactor of the
//    driver or a policy that changes a manifest orphans every existing
//    store (resume and incremental carry silently stop matching); one
//    that changes a digest changes verdicts.  Update a pin only with a
//    change that means to do either.
//
//  * A contract test written once and instantiated for every analysis:
//    the retry ladder, fan-out cost attribution, contained store appends,
//    torn-store resume and ladder-wide timing behave the same whichever
//    policy runs.

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"
#include "batch/result_store.h"
#include "circuits/ota.h"
#include "core/cat.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "obs/obs.h"
#include "robust/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

using namespace catlift;
using namespace catlift::anafault;
using netlist::Circuit;
using netlist::SourceSpec;

namespace {

const char* verdict_of(const batch::FaultSimResult& r) {
    if (r.detect_time) return "detected";
    if (r.simulated) return "undetected";
    return r.quarantined ? "quarantined" : "failed";
}

/// FNV-1a over the sorted "id verdict %a" lines of a campaign, where %a is
/// the analysis' verdict coordinate (detect time, detect frequency, dV).
template <class Results, class Coord>
std::uint64_t verdict_digest(const Results& results, Coord coord) {
    std::vector<std::string> lines;
    for (const auto& r : results) {
        const auto [rec, x] = coord(r);
        char buf[128];
        std::snprintf(buf, sizeof buf, "%d %s %a", rec.fault_id,
                      verdict_of(rec), x);
        lines.emplace_back(buf);
    }
    std::sort(lines.begin(), lines.end());
    std::string all;
    for (const std::string& l : lines) all += l + "\n";
    return batch::fnv1a(all);
}

/// The OTA buffer's three default campaigns over its LIFT fault list, as
/// examples/ota_methods.cpp sets them up.
struct OtaCampaigns {
    lift::FaultList faults;
    Circuit tran_ckt, ac_ckt, dc_ckt;
    CampaignOptions tran;
    AcCampaignOptions ac;
    DcScreenOptions dc;
};

OtaCampaigns ota_campaigns() {
    OtaCampaigns o;
    circuits::OtaOptions dev_opt;
    dev_opt.with_sources = false;
    const layout::Layout lo =
        layout::generate_cell_layout(circuits::build_ota(dev_opt));
    lift::LiftOptions lopt;
    lopt.net_blocks = circuits::ota_net_blocks();
    o.faults = lift::extract_faults(
                   lo, layout::Technology::single_poly_double_metal(), lopt)
                   .faults;
    o.tran_ckt = circuits::build_ota();
    o.dc_ckt = circuits::build_ota();
    o.dc_ckt.device("VDD").source = SourceSpec::make_dc(5.0);
    o.dc_ckt.device("VIN").source = SourceSpec::make_dc(2.5);
    o.ac_ckt = o.dc_ckt;
    o.ac_ckt.device("VIN").source.ac_mag = 1.0;
    o.tran.detection.observed = {circuits::kOtaOutput};
    o.tran.detection.v_tol = 0.4;
    o.ac.observed = {circuits::kOtaOutput};
    o.ac.sweep.fstart = 1e3;
    o.ac.sweep.fstop = 1e9;
    o.dc.observed = {circuits::kOtaOutput};
    o.dc.v_tol = 0.5;
    return o;
}

} // namespace

// ---------------------------------------------------------------------------
// Cross-commit identity pins

TEST(DriverPins, OtaManifests) {
    const OtaCampaigns o = ota_campaigns();
    ASSERT_EQ(o.faults.size(), 15u);
    EXPECT_EQ(campaign_manifest(o.tran_ckt, o.faults, o.tran),
              0x97c0b4fd664503b7ull);
    EXPECT_EQ(ac_campaign_manifest(o.ac_ckt, o.faults, o.ac),
              0x4df3779836e41eb3ull);
    EXPECT_EQ(dc_screen_manifest(o.dc_ckt, o.faults, o.dc),
              0x7a7349f906434e1full);
}

TEST(DriverPins, VcoManifests) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const lift::FaultList fl =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift).faults;
    ASSERT_EQ(fl.size(), 64u);
    EXPECT_EQ(campaign_manifest(e.sim_circuit, fl, e.config.campaign),
              0x2f4408d35db68075ull);
    EXPECT_EQ(ac_campaign_manifest(e.sim_circuit, fl, {}),
              0x91653ca232b6cf45ull);
    EXPECT_EQ(dc_screen_manifest(e.sim_circuit, fl, {}),
              0xbd4b28dfe652f458ull);
}

/// Which knobs move a manifest: flipping a hashed execution field changes
/// it (a store written under the old value is foreign), flipping an
/// exempt one leaves it unchanged (same campaign, same store).
template <class Options, class Manifest>
void expect_manifest_sensitivity(const char* analysis, const Options& base,
                                 Manifest manifest) {
    const std::uint64_t h0 = manifest(base);
    const auto moved = [&](auto flip) {
        Options o = base;
        flip(o);
        return manifest(o) != h0;
    };
    SCOPED_TRACE(analysis);
    EXPECT_TRUE(moved([](Options& o) {
        o.injection.model = HardFaultModel::Source;
    })) << "injection.model";
    EXPECT_TRUE(moved([](Options& o) { o.sim.gmin *= 10; })) << "sim.gmin";
    EXPECT_TRUE(moved([](Options& o) { o.sim.lte_tol *= 2; }))
        << "sim.lte_tol";
    EXPECT_TRUE(moved([](Options& o) {
        o.share_symbolic = !o.share_symbolic;
    })) << "share_symbolic";
    EXPECT_TRUE(moved([](Options& o) { ++o.max_retries; })) << "max_retries";

    EXPECT_FALSE(moved([](Options& o) { o.threads = 7; })) << "threads";
    EXPECT_FALSE(moved([](Options& o) { o.result_store = "elsewhere.store"; }))
        << "result_store";
    EXPECT_FALSE(moved([](Options& o) {
        o.store_durability = batch::Durability::Fsync;
    })) << "store_durability";
    EXPECT_FALSE(moved([](Options& o) { o.resume = !o.resume; }))
        << "resume";
}

TEST(DriverPins, OtaManifestSensitivity) {
    const OtaCampaigns o = ota_campaigns();
    expect_manifest_sensitivity("tran", o.tran, [&](const CampaignOptions& c) {
        return campaign_manifest(o.tran_ckt, o.faults, c);
    });
    expect_manifest_sensitivity("ac", o.ac, [&](const AcCampaignOptions& c) {
        return ac_campaign_manifest(o.ac_ckt, o.faults, c);
    });
    expect_manifest_sensitivity("dc", o.dc, [&](const DcScreenOptions& c) {
        return dc_screen_manifest(o.dc_ckt, o.faults, c);
    });
}

TEST(DriverPins, OtaVerdictDigests) {
    const OtaCampaigns o = ota_campaigns();
    const CampaignResult tr = run_campaign(o.tran_ckt, o.faults, o.tran);
    EXPECT_EQ(verdict_digest(tr.results,
                             [](const FaultSimResult& r) {
                                 return std::pair{r, r.detect_time.value_or(
                                                         -1.0)};
                             }),
              0xe22fcdd70c9b26b1ull);
    const AcCampaignResult ac = run_ac_campaign(o.ac_ckt, o.faults, o.ac);
    EXPECT_EQ(verdict_digest(ac.results,
                             [](const AcFaultResult& r) {
                                 return std::pair{ac_to_record(r),
                                                  r.detect_freq.value_or(
                                                      -1.0)};
                             }),
              0xc3fc4b6c92fe79f8ull);
    const DcScreenResult dc = run_dc_screen(o.dc_ckt, o.faults, o.dc);
    EXPECT_EQ(verdict_digest(dc.results,
                             [](const DcFaultResult& r) {
                                 return std::pair{dc_to_record(r),
                                                  r.max_deviation};
                             }),
              0xdb7b2a1159719a7aull);
}

TEST(DriverPins, VcoTranVerdictDigest) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const lift::FaultList fl =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift).faults;
    CampaignOptions opt = e.config.campaign;
    opt.threads = 2;  // not in the manifest: verdicts are thread-count free
    const CampaignResult res = run_campaign(e.sim_circuit, fl, opt);
    EXPECT_EQ(verdict_digest(res.results,
                             [](const FaultSimResult& r) {
                                 return std::pair{r, r.detect_time.value_or(
                                                         -1.0)};
                             }),
              0x00b3a198229cb33full);
}

// ---------------------------------------------------------------------------
// One contract, every analysis

namespace {

/// Pulsed / DC / AC-driven voltage divider with a load capacitor: cheap,
/// and shorts on it are detectable by every analysis at node "out".
Circuit divider(const SourceSpec& v1) {
    Circuit c;
    c.title = "divider";
    c.add_vsource("V1", "in", "0", v1);
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_resistor("R2", "out", "0", 1e3);
    c.add_capacitor("C1", "out", "0", 1e-10);
    c.tran = netlist::TranSpec{1e-8, 4e-6, 0.0};
    return c;
}

/// The bytes of a vector's elements, for bit-for-bit comparisons.
template <class T>
std::string raw(const std::vector<T>& v) {
    return std::string(reinterpret_cast<const char*>(v.data()),
                       v.size() * sizeof(T));
}

struct TranCase {
    using Options = CampaignOptions;
    static Circuit circuit() {
        return divider(SourceSpec::make_pulse(0, 5, 0, 1e-9, 1e-9, 1e-6,
                                              2e-6));
    }
    static Options options() {
        Options o;
        o.detection.observed = {"out"};
        return o;
    }
    static CampaignResult run(const Circuit& c, const lift::FaultList& fl,
                              const Options& o) {
        return run_campaign(c, fl, o);
    }
    static batch::FaultSimResult record(const FaultSimResult& r) {
        return r;
    }
    static std::string nominal_bits(const CampaignResult& r) {
        std::string b = raw(r.nominal.time());
        for (const std::string& n : r.nominal.trace_names())
            b += n + raw(r.nominal.trace(n));
        return b;
    }
};

struct AcCase {
    using Options = AcCampaignOptions;
    static Circuit circuit() {
        SourceSpec s = SourceSpec::make_dc(5.0);
        s.ac_mag = 1.0;
        return divider(s);
    }
    static Options options() {
        Options o;
        o.observed = {"out"};
        o.sweep.fstart = 1e3;
        o.sweep.fstop = 1e8;
        return o;
    }
    static AcCampaignResult run(const Circuit& c, const lift::FaultList& fl,
                                const Options& o) {
        return run_ac_campaign(c, fl, o);
    }
    static batch::FaultSimResult record(const AcFaultResult& r) {
        return ac_to_record(r);
    }
    static std::string nominal_bits(const AcCampaignResult& r) {
        std::string b = raw(r.nominal.freq());
        for (const std::string& n : r.nominal.node_names())
            b += n + raw(r.nominal.response(n));
        return b;
    }
};

struct DcCase {
    using Options = DcScreenOptions;
    static Circuit circuit() { return divider(SourceSpec::make_dc(5.0)); }
    static Options options() {
        Options o;
        o.observed = {"out"};
        o.v_tol = 0.5;
        return o;
    }
    static DcScreenResult run(const Circuit& c, const lift::FaultList& fl,
                              const Options& o) {
        return run_dc_screen(c, fl, o);
    }
    static batch::FaultSimResult record(const DcFaultResult& r) {
        return dc_to_record(r);
    }
    static std::string nominal_bits(const DcScreenResult& r) {
        std::string b = std::to_string(r.nominal_iterations);
        for (const auto& [n, v] : r.nominal_op)
            b += n + raw(std::vector<double>{v});
        return b;
    }
};

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

/// Three shorts; #3 is #1 with its nets swapped -- the same electrical
/// effect, so collapsing simulates it once and fans the verdict out.
lift::FaultList divider_faults() {
    lift::FaultList fl;
    fl.circuit = "divider";
    fl.faults.push_back(make_short(1, "out", "0", 4e-3));
    fl.faults.push_back(make_short(2, "in", "out", 3e-3));
    fl.faults.push_back(make_short(3, "0", "out", 2e-3));
    return fl;
}

std::string temp_store(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("catlift_driver_" + tag + ".store"))
        .string();
}

std::uint64_t hits_of(const std::string& name) {
    for (const robust::FailpointStatus& s : robust::status())
        if (s.name == name) return s.hits;
    return 0;
}

template <class Case>
class DriverContract : public ::testing::Test {
protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }
    static void reset() {
        robust::disarm_all();
        obs::detach_event_sinks();
    }

    /// Hits the nominal analysis spends at each site -- so a failpoint
    /// window can open on the faulty attempts only.  Counted with
    /// never-firing windows, which do not perturb the run.
    static std::pair<std::uint64_t, std::uint64_t> nominal_hits(
        const typename Case::Options& opt) {
        robust::arm("kernel.newton=error@1000000000;"
                    "kernel.factor=error@1000000000");
        const lift::FaultList empty{"divider", {}};
        Case::run(Case::circuit(), empty, opt);
        const auto h = std::pair{hits_of("kernel.newton"),
                                 hits_of("kernel.factor")};
        robust::disarm_all();
        return h;
    }

    /// One line per fault: id, verdict, coordinate and metric.
    template <class Output>
    static std::vector<std::string> digest(const Output& res) {
        std::vector<std::string> lines;
        for (const auto& r : res.results) {
            const batch::FaultSimResult rec = Case::record(r);
            char buf[160];
            std::snprintf(buf, sizeof buf, "%d %s t=%a m=%a", rec.fault_id,
                          verdict_of(rec), rec.detect_time.value_or(-1.0),
                          rec.metric);
            lines.emplace_back(buf);
        }
        return lines;
    }
};

using Analyses = ::testing::Types<TranCase, AcCase, DcCase>;
TYPED_TEST_SUITE(DriverContract, Analyses);

} // namespace

TYPED_TEST(DriverContract, LadderWalksToQuarantineWithOneBasedRetries) {
    using Case = TypeParam;
    typename Case::Options opt = Case::options();
    opt.max_retries = 3;
    lift::FaultList fl = divider_faults();
    fl.faults.resize(1);
    // The fixed-grid rung changes only the transient's stepping: DC and AC
    // skip it, and the dense rung becomes their third attempt.
    using Retries = std::vector<std::pair<std::int64_t, std::string>>;
    const bool tran = std::is_same_v<Case, TranCase>;
    const Retries want =
        tran ? Retries{{2, "no-bypass"}, {3, "fixed-grid"}, {4, "dense"}}
             : Retries{{2, "no-bypass"}, {3, "dense"}};

    const std::uint64_t h = this->nominal_hits(opt).first;
    ASSERT_GT(h, 0u);
    // Every Newton solve after the nominal analysis -- every attempt of
    // the one fault -- throws at entry.
    robust::arm("kernel.newton=error@" + std::to_string(h + 1));
    const auto sink = std::make_shared<obs::CaptureSink>();
    obs::attach_event_sink(sink);
    const auto res = Case::run(Case::circuit(), fl, opt);
    obs::detach_event_sinks();

    ASSERT_EQ(res.results.size(), 1u);
    const batch::FaultSimResult r = Case::record(res.results[0]);
    EXPECT_FALSE(r.simulated);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 1 + want.size());  // base + the retries
    EXPECT_EQ(r.retry_log.find("[fixed-grid]") != std::string::npos, tran)
        << r.retry_log;
    EXPECT_LT(r.retry_log.find("[base]"), r.retry_log.find("[no-bypass]"));
    EXPECT_LT(r.retry_log.find("[no-bypass]"), r.retry_log.find("[dense]"));
    EXPECT_NE(r.retry_log.find("attempt " + std::to_string(r.attempts) +
                               " [dense]"),
              std::string::npos)
        << r.retry_log;
    EXPECT_EQ(res.quarantined(), 1u);
    EXPECT_EQ(res.failed(), 0u);
    EXPECT_EQ(res.batch.retries, want.size());
    EXPECT_EQ(res.batch.quarantined, 1u);
    EXPECT_EQ(res.batch.job_errors, 0u);

    // fault_retry numbers attempts 1-based: the second attempt is 2.
    Retries retries;
    std::size_t quarantined_events = 0, scheduled_events = 0;
    for (const obs::CaptureSink::Captured& ev : sink->take()) {
        if (ev.name == "fault_quarantined") ++quarantined_events;
        if (ev.name == "fault_scheduled") ++scheduled_events;
        if (ev.name != "fault_retry") continue;
        std::int64_t attempt = 0;
        std::string config;
        for (const obs::TraceArg& a : ev.fields) {
            if (std::string(a.key) == "attempt") attempt = a.i;
            if (std::string(a.key) == "config") config = a.s;
        }
        retries.emplace_back(attempt, config);
    }
    EXPECT_EQ(retries, want);
    EXPECT_EQ(quarantined_events, 1u);
    EXPECT_EQ(scheduled_events, 1u);
}

TYPED_TEST(DriverContract, FannedOutMembersCarryNoKernelCost) {
    using Case = TypeParam;
    const auto res =
        Case::run(Case::circuit(), divider_faults(), Case::options());
    ASSERT_EQ(res.results.size(), 3u);
    EXPECT_EQ(res.batch.classes, 2u);
    EXPECT_EQ(res.batch.collapsed, 1u);
    EXPECT_EQ(res.batch.scheduled, 2u);

    const batch::FaultSimResult rep = Case::record(res.results[0]);
    const batch::FaultSimResult fan = Case::record(res.results[2]);
    EXPECT_EQ(fan.fault_id, 3);
    EXPECT_EQ(fan.probability, 2e-3);
    EXPECT_STREQ(verdict_of(fan), verdict_of(rep));
    EXPECT_EQ(fan.detect_time, rep.detect_time);
    EXPECT_EQ(fan.metric, rep.metric);
    EXPECT_GT(rep.sim_seconds, 0.0);
    EXPECT_GT(rep.nr_iterations, 0u);

    EXPECT_EQ(fan.attempts, 1u);
    EXPECT_TRUE(fan.retry_log.empty());
    EXPECT_EQ(fan.sim_seconds, 0.0);
    EXPECT_EQ(fan.nr_iterations, 0u);
    EXPECT_EQ(fan.steps_saved, 0u);
    EXPECT_EQ(fan.steps_integrated, 0u);
    EXPECT_EQ(fan.steps_interpolated, 0u);
    EXPECT_EQ(fan.bypass_solves, 0u);
    EXPECT_EQ(fan.sparse_refactors, 0u);
    EXPECT_EQ(fan.device_stamp_skips, 0u);
    EXPECT_EQ(fan.symbolic_cache_hits, 0u);
    EXPECT_EQ(fan.ordering_seconds, 0.0);
    EXPECT_EQ(fan.numeric_seconds, 0.0);
}

TYPED_TEST(DriverContract, TornAppendIsContainedAndCounted) {
    using Case = TypeParam;
    typename Case::Options opt = Case::options();
    opt.threads = 1;  // deterministic append (and failpoint) order
    const lift::FaultList fl = divider_faults();
    const auto ref = Case::run(Case::circuit(), fl, opt);

    opt.result_store = temp_store("torn");
    robust::arm("store.append=torn@2+1");
    const auto torn = Case::run(Case::circuit(), fl, opt);
    robust::disarm_all();
    EXPECT_EQ(torn.batch.store_errors, 1u);
    EXPECT_EQ(torn.batch.job_errors, 0u);
    EXPECT_EQ(this->digest(torn), this->digest(ref));
    std::filesystem::remove(opt.result_store);
}

TYPED_TEST(DriverContract, TruncatedStoreResumesToIdenticalVerdicts) {
    using Case = TypeParam;
    typename Case::Options opt = Case::options();
    opt.threads = 1;
    opt.result_store = temp_store("truncated");
    const lift::FaultList fl = divider_faults();
    const auto ref = Case::run(Case::circuit(), fl, opt);

    // Tear the last record (fault #2, the lower-probability class).
    std::filesystem::resize_file(
        opt.result_store, std::filesystem::file_size(opt.result_store) - 9);
    opt.resume = true;
    const auto resumed = Case::run(Case::circuit(), fl, opt);
    EXPECT_EQ(resumed.batch.resumed, 2u);
    EXPECT_EQ(resumed.batch.scheduled, 1u);
    EXPECT_EQ(this->digest(resumed), this->digest(ref));

    // The healed store now resumes everything.
    const auto warm = Case::run(Case::circuit(), fl, opt);
    EXPECT_EQ(warm.batch.resumed, 3u);
    EXPECT_EQ(warm.batch.scheduled, 0u);
    EXPECT_EQ(this->digest(warm), this->digest(ref));
    std::filesystem::remove(opt.result_store);
}

TYPED_TEST(DriverContract, FinishedStoreResumesWithoutTheKernel) {
    using Case = TypeParam;
    typename Case::Options opt = Case::options();
    opt.result_store = temp_store("finished");
    std::filesystem::remove(opt.result_store);
    const lift::FaultList fl = divider_faults();
    const auto cold = Case::run(Case::circuit(), fl, opt);
    EXPECT_EQ(cold.batch.nominal_resumed, 0u);

    // Any Newton solve -- the nominal's or a fault's -- would throw.
    opt.resume = true;
    robust::arm("kernel.newton=error@1");
    const auto warm = Case::run(Case::circuit(), fl, opt);
    const std::uint64_t hits = hits_of("kernel.newton");
    robust::disarm_all();
    EXPECT_EQ(hits, 0u);
    EXPECT_EQ(warm.batch.nominal_resumed, 1u);
    EXPECT_EQ(warm.batch.scheduled, 0u);
    EXPECT_EQ(warm.batch.resumed, fl.size());
    EXPECT_EQ(this->digest(warm), this->digest(cold));
    EXPECT_EQ(Case::nominal_bits(warm), Case::nominal_bits(cold));
    std::filesystem::remove(opt.result_store);
}

TYPED_TEST(DriverContract, StoredSymbolicOrderServesResimulatedFaults) {
    using Case = TypeParam;
    typename Case::Options opt = Case::options();
    opt.threads = 1;
    opt.sim.sparse_threshold = 1;  // sparse kernel: the order is persisted
    opt.result_store = temp_store("symbolic");
    std::filesystem::remove(opt.result_store);
    const lift::FaultList fl = divider_faults();
    const auto cold = Case::run(Case::circuit(), fl, opt);
    ASSERT_EQ(cold.batch.symbolic_cache_hits, cold.batch.scheduled);

    // Tear the last fault record: its class is simulated again, under the
    // elimination order loaded with the nominal.
    std::filesystem::resize_file(
        opt.result_store, std::filesystem::file_size(opt.result_store) - 9);
    opt.resume = true;
    const auto resumed = Case::run(Case::circuit(), fl, opt);
    EXPECT_EQ(resumed.batch.nominal_resumed, 1u);
    EXPECT_EQ(resumed.batch.scheduled, 1u);
    EXPECT_EQ(resumed.batch.symbolic_cache_hits, 1u);
    EXPECT_EQ(this->digest(resumed), this->digest(cold));
    EXPECT_EQ(Case::nominal_bits(resumed), Case::nominal_bits(cold));
    std::filesystem::remove(opt.result_store);
}

TYPED_TEST(DriverContract, SimSecondsCoversEveryAttempt) {
    using Case = TypeParam;
    typename Case::Options opt = Case::options();
    opt.threads = 1;
    lift::FaultList fl = divider_faults();
    fl.faults.resize(1);

    const auto [hn, hf] = this->nominal_hits(opt);
    // The first attempt sleeps in its first Newton solve, then fails at
    // its first factorization; the retry succeeds.  The fault's kernel
    // time must include the failed attempt.
    robust::arm("kernel.newton=sleep:80@" + std::to_string(hn + 1) +
                "+1;kernel.factor=error@" + std::to_string(hf + 1) + "+1");
    const auto res = Case::run(Case::circuit(), fl, opt);
    robust::disarm_all();

    ASSERT_EQ(res.results.size(), 1u);
    const batch::FaultSimResult r = Case::record(res.results[0]);
    EXPECT_TRUE(r.simulated) << r.error;
    EXPECT_EQ(r.attempts, 2u) << r.retry_log;
    EXPECT_GE(r.sim_seconds, 0.08);
}
