// Observability subsystem tests: metrics registry (sharded counters,
// log-bucket histograms, JSON snapshot), span tracing with Chrome-trace
// export, the campaign event bus, and the end-to-end contracts -- every
// fault simulation is one closed span whose args sum to the registry
// totals, tracing never changes a verdict, and a resumed campaign splits
// `resumed` from `carried_from_store`.

#include "anafault/campaign.h"
#include "batch/result_store.h"
#include "core/cat.h"
#include "lift/extract_faults.h"
#include "obs/obs.h"
#include "spice/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

using namespace catlift;

namespace {

/// Every test leaves the process-global obs state as it found it: off,
/// empty, no sinks.
struct ObsGuard {
    ObsGuard() { clear(); }
    ~ObsGuard() { clear(); }
    static void clear() {
        obs::enable_metrics(false);
        obs::enable_tracing(false);
        obs::detach_event_sinks();
        obs::Registry::global().reset();
        obs::trace_reset();
    }
};

std::string temp_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("catlift_obs_" + tag + ".store"))
        .string();
}

const obs::TraceArg* find_arg(const obs::TraceEvent& ev, const char* key) {
    for (const obs::TraceArg& a : ev.args)
        if (std::string(a.key) == key) return &a;
    return nullptr;
}

} // namespace

// ---------------------------------------------------------------------------
// Metrics registry

TEST(ObsMetrics, CounterAggregatesAcrossThreads) {
    ObsGuard g;
    obs::Counter c;
    std::vector<std::thread> ts;
    constexpr int kThreads = 8, kAdds = 10000;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i) c.add(1);
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, HistogramBucketsAndPercentiles) {
    ObsGuard g;
    obs::Histogram h;
    for (int i = 0; i < 99; ++i) h.record(1e-3);
    h.record(1.0);  // the single outlier is the exact max
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_NEAR(s.sum, 99 * 1e-3 + 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.max, 1.0);
    // p50/p95 fall in the 1e-3 bucket (log buckets: within ~60%).
    EXPECT_NEAR(s.p50(), 1e-3, 0.6e-3);
    EXPECT_NEAR(s.p95(), 1e-3, 0.6e-3);
    // The top percentile clamps to the exact max, not a bucket edge.
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 1.0);
}

TEST(ObsMetrics, HistogramUnderOverflow) {
    ObsGuard g;
    obs::Histogram h;
    h.record(0.0);     // below kHistMin -> underflow bucket
    h.record(1e30);    // above the top decade -> overflow bucket
    h.record(-5.0);    // negative clamps to underflow
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.max, 1e30);
}

TEST(ObsMetrics, RegistryJsonAndReset) {
    ObsGuard g;
    obs::Registry& reg = obs::Registry::global();
    obs::Counter& c = reg.counter("test.counter");
    c.add(7);
    reg.gauge("test.gauge").set(2.5);
    reg.histogram("test.hist").record(0.25);
    const std::string js = reg.to_json();
    EXPECT_NE(js.find("\"test.counter\": 7"), std::string::npos);
    EXPECT_NE(js.find("\"test.gauge\""), std::string::npos);
    EXPECT_NE(js.find("\"test.hist\""), std::string::npos);
    reg.reset();
    // References stay valid after reset; values are zeroed in place.
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(reg.histogram("test.hist").snapshot().count, 0u);
}

// ---------------------------------------------------------------------------
// Spans and trace export

TEST(ObsTrace, SpanOffIsInert) {
    ObsGuard g;
    {
        obs::Span sp(obs::Phase::Solve);
        sp.arg("k", std::int64_t{1});
    }
    EXPECT_EQ(obs::trace_event_count(), 0u);
    EXPECT_EQ(obs::phase_histogram(obs::Phase::Solve).snapshot().count, 0u);
}

TEST(ObsTrace, SpanRecordsHistogramAndEvent) {
    ObsGuard g;
    obs::enable_metrics(true);
    obs::enable_tracing(true);
    obs::set_lane_name("test-lane");
    {
        obs::Span sp(obs::Phase::Factor);
        sp.set_phase(obs::Phase::Refactor);  // re-classification sticks
        sp.arg("unknowns", std::int64_t{42});
    }
    EXPECT_EQ(obs::trace_event_count(), 1u);
    EXPECT_EQ(obs::phase_histogram(obs::Phase::Refactor).snapshot().count,
              1u);
    EXPECT_EQ(obs::phase_histogram(obs::Phase::Factor).snapshot().count, 0u);
    const auto evs = obs::trace_snapshot();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_STREQ(evs[0].name, "refactor");
    const obs::TraceArg* a = find_arg(evs[0], "unknowns");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->i, 42);
}

TEST(ObsTrace, SpanEndIsIdempotent) {
    ObsGuard g;
    obs::enable_tracing(true);
    obs::Span sp(obs::Phase::Solve);
    sp.end();
    sp.end();  // second end and the destructor must both be no-ops
    EXPECT_EQ(obs::trace_event_count(), 1u);
}

TEST(ObsTrace, ChromeExportIsWellFormed) {
    ObsGuard g;
    obs::enable_tracing(true);
    obs::set_lane_name("main");
    for (int i = 0; i < 3; ++i) obs::Span sp(obs::Phase::Newton);
    std::ostringstream os;
    obs::write_chrome_trace(os);
    const std::string js = os.str();
    EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(js.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(js.find("\"name\":\"newton\""), std::string::npos);
}

TEST(ObsTrace, JsonEscape) {
    EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// ---------------------------------------------------------------------------
// Event bus

TEST(ObsEvents, DisabledWithoutSinksCaptureWhenAttached) {
    ObsGuard g;
    EXPECT_FALSE(obs::events_enabled());
    auto cap = std::make_shared<obs::CaptureSink>();
    obs::attach_event_sink(cap);
    EXPECT_TRUE(obs::events_enabled());
    obs::emit_event("test_event", {obs::arg("n", std::int64_t{3})});
    EXPECT_EQ(cap->count_of("test_event"), 1u);
    const auto evs = cap->take();
    ASSERT_EQ(evs.size(), 1u);
    ASSERT_EQ(evs[0].fields.size(), 1u);
    EXPECT_EQ(evs[0].fields[0].i, 3);
    obs::detach_event_sinks();
    EXPECT_FALSE(obs::events_enabled());
}

TEST(ObsEvents, JsonlSinkWritesOneObjectPerLine) {
    ObsGuard g;
    const std::string path = temp_path("events") + ".jsonl";
    {
        auto sink = std::make_shared<obs::JsonlSink>(path);
        ASSERT_TRUE(sink->good());
        obs::attach_event_sink(sink);
        obs::emit_event("ev_a", {obs::arg("x", 1.5)});
        obs::emit_event("ev_b", {obs::arg("s", std::string("q\"q"))});
        obs::detach_event_sinks();
    }
    std::ifstream in(path);
    std::string l1, l2;
    ASSERT_TRUE(std::getline(in, l1));
    ASSERT_TRUE(std::getline(in, l2));
    EXPECT_NE(l1.find("\"ev\":\"ev_a\""), std::string::npos);
    EXPECT_NE(l1.find("\"x\":1.5"), std::string::npos);
    EXPECT_NE(l2.find("\"s\":\"q\\\"q\""), std::string::npos);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Traced campaign end to end

namespace {

struct TracedCampaign {
    anafault::CampaignResult res;
    std::vector<obs::TraceEvent> fault_spans;
    std::shared_ptr<obs::CaptureSink> events;
};

TracedCampaign run_traced_vco(unsigned threads) {
    TracedCampaign out;
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = threads;

    obs::enable_metrics(true);
    obs::enable_tracing(true);
    out.events = std::make_shared<obs::CaptureSink>();
    obs::attach_event_sink(out.events);
    out.res = anafault::run_campaign(e.sim_circuit, lift_res.faults, opt);
    obs::enable_tracing(false);
    obs::detach_event_sinks();

    for (const obs::TraceEvent& ev : obs::trace_snapshot())
        if (std::string(ev.name) == "fault") out.fault_spans.push_back(ev);
    return out;
}

} // namespace

TEST(ObsCampaign, EveryScheduledFaultIsOneClosedSpanWithArgs) {
    ObsGuard g;
    const TracedCampaign t = run_traced_vco(2);
    EXPECT_EQ(t.fault_spans.size(), t.res.batch.scheduled);
    for (const obs::TraceEvent& ev : t.fault_spans) {
        EXPECT_GT(ev.dur_ns, 0u);
        const obs::TraceArg* verdict = find_arg(ev, "verdict");
        ASSERT_NE(verdict, nullptr);
        EXPECT_TRUE(verdict->s == "detected" || verdict->s == "undetected" ||
                    verdict->s == "failed");
        const obs::TraceArg* sig = find_arg(ev, "signature");
        ASSERT_NE(sig, nullptr);
        EXPECT_FALSE(sig->s.empty());
        EXPECT_NE(find_arg(ev, "fault_id"), nullptr);
    }
}

TEST(ObsCampaign, RegistryTotalsEqualSumOfSpanArgsMultiThread) {
    ObsGuard g;
    const TracedCampaign t = run_traced_vco(4);
    ASSERT_GT(t.fault_spans.size(), 0u);

    // Sum each per-fault arg across all spans and compare with the
    // registry counter the publisher incremented with the same values:
    // nothing lost, nothing double-counted, even with 4 workers.
    const std::map<std::string, std::string> arg_to_counter = {
        {"nr_iterations", "campaign.nr_iterations"},
        {"steps_integrated", "campaign.steps_integrated"},
        {"steps_saved", "campaign.steps_saved"},
        {"bypass_solves", "campaign.bypass_solves"},
        {"device_stamp_skips", "campaign.device_stamp_skips"},
        {"symbolic_cache_hits", "campaign.symbolic_cache_hits"},
    };
    obs::Registry& reg = obs::Registry::global();
    for (const auto& [arg_key, counter_name] : arg_to_counter) {
        std::uint64_t sum = 0;
        for (const obs::TraceEvent& ev : t.fault_spans) {
            const obs::TraceArg* a = find_arg(ev, arg_key.c_str());
            ASSERT_NE(a, nullptr) << arg_key;
            sum += static_cast<std::uint64_t>(a->i);
        }
        EXPECT_EQ(reg.counter(counter_name).value(), sum) << counter_name;
    }
    EXPECT_EQ(reg.counter("campaign.retired").value(),
              t.fault_spans.size());
    EXPECT_EQ(reg.counter("scheduler.jobs").value(), t.res.batch.classes);

    // The event stream saw every retirement: one fault_retired per fault
    // in the full (fanned-out) result set, plus start/end markers.
    EXPECT_EQ(t.events->count_of("fault_retired"), t.res.results.size());
    EXPECT_EQ(t.events->count_of("campaign_start"), 1u);
    EXPECT_EQ(t.events->count_of("campaign_end"), 1u);
}

TEST(ObsCampaign, TracingNeverChangesVerdicts) {
    ObsGuard g;
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    anafault::CampaignOptions opt = e.config.campaign;

    const auto off = anafault::run_campaign(e.sim_circuit, lift_res.faults,
                                            opt);
    obs::enable_metrics(true);
    obs::enable_tracing(true);
    obs::attach_event_sink(std::make_shared<obs::NullSink>());
    const auto on = anafault::run_campaign(e.sim_circuit, lift_res.faults,
                                           opt);
    ObsGuard::clear();

    ASSERT_EQ(off.results.size(), on.results.size());
    for (std::size_t i = 0; i < off.results.size(); ++i) {
        EXPECT_EQ(off.results[i].fault_id, on.results[i].fault_id);
        EXPECT_EQ(off.results[i].simulated, on.results[i].simulated);
        ASSERT_EQ(off.results[i].detect_time.has_value(),
                  on.results[i].detect_time.has_value());
        if (off.results[i].detect_time) {
            EXPECT_EQ(*off.results[i].detect_time,
                      *on.results[i].detect_time);
        }
    }
}

// ---------------------------------------------------------------------------
// Resume split: resumed vs carried_from_store

TEST(ObsCampaign, ResumeSplitsCarriedFromStore) {
    ObsGuard g;
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    anafault::CampaignOptions opt = e.config.campaign;
    opt.result_store = temp_path("resume_split");
    std::filesystem::remove(opt.result_store);

    // Cold run fills the store with carried=false records.
    const auto cold = anafault::run_campaign(e.sim_circuit, lift_res.faults,
                                             opt);
    EXPECT_EQ(cold.batch.resumed, 0u);
    EXPECT_EQ(cold.batch.carried_from_store, 0u);

    // Plain resume: every store record counts as `resumed`.
    opt.resume = true;
    const auto warm = anafault::run_campaign(e.sim_circuit, lift_res.faults,
                                             opt);
    EXPECT_EQ(warm.batch.resumed, cold.batch.scheduled);
    EXPECT_EQ(warm.batch.carried_from_store, 0u);
    EXPECT_EQ(warm.batch.scheduled, 0u);

    // Rewrite the store with every record flagged carried (as the
    // cross-revision engine's seed does): the same resume now reports
    // them under carried_from_store, not resumed.
    const auto snap = batch::load_store(opt.result_store);
    ASSERT_TRUE(snap.has_value());
    const std::string carried_path = temp_path("resume_split_carried");
    std::filesystem::remove(carried_path);
    {
        batch::ResultStore store(
            carried_path,
            anafault::campaign_manifest(e.sim_circuit, lift_res.faults, opt));
        for (batch::FaultSimResult r : snap->records) {
            r.carried = true;
            store.append(r);
        }
    }
    opt.result_store = carried_path;
    const auto carried = anafault::run_campaign(e.sim_circuit,
                                                lift_res.faults, opt);
    EXPECT_EQ(carried.batch.carried_from_store, cold.batch.scheduled);
    EXPECT_EQ(carried.batch.resumed, 0u);
    EXPECT_EQ(carried.batch.scheduled, 0u);

    // Verdicts are identical however the records were loaded.
    ASSERT_EQ(carried.results.size(), cold.results.size());
    for (std::size_t i = 0; i < cold.results.size(); ++i)
        EXPECT_EQ(cold.results[i].detect_time.has_value(),
                  carried.results[i].detect_time.has_value());

    std::filesystem::remove(temp_path("resume_split"));
    std::filesystem::remove(carried_path);
}
