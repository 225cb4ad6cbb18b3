// Concurrency stress tests: real read-during-write interleavings for
// ThreadSanitizer (the `tsan` CI job runs this suite and fails on any
// reported race) and for the annotated-lock contracts in
// core/thread_annotations.h.  Each test pairs concurrent writers with
// live readers -- the pattern campaigns actually exhibit when a metrics
// poller or progress sink observes a running campaign -- because a
// writer-only or reader-only test lets TSan's happens-before analysis
// vacuously pass.

#include "anafault/campaign.h"
#include "batch/scheduler.h"
#include "core/cat.h"
#include "lift/extract_faults.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace catlift;

namespace {

/// RAII: full observability on (metrics + tracing + a live capture
/// sink), restored to off and wiped on exit so tests stay independent.
struct ObsAllOn {
    std::shared_ptr<obs::CaptureSink> sink =
        std::make_shared<obs::CaptureSink>();
    ObsAllOn() {
        obs::Registry::global().reset();
        obs::trace_reset();
        obs::enable_metrics(true);
        obs::enable_tracing(true);
        obs::attach_event_sink(sink);
    }
    ~ObsAllOn() {
        obs::detach_event_sinks();
        obs::enable_tracing(false);
        obs::enable_metrics(false);
        obs::trace_reset();
        obs::Registry::global().reset();
    }
};

// ---------------------------------------------------------------------------
// The ISSUE's end-to-end case: the 4-worker 64-fault VCO campaign with
// every observability channel live, while reader threads snapshot the
// registry, the trace lanes and the event buffer mid-campaign.  This is
// the exact write set (sharded metric shards, per-lane trace vectors,
// capture-sink buffer, scheduler deques, result aggregation) the
// thread-safety annotations claim to protect.

TEST(ConcurrencyTest, VcoCampaignFourWorkersWithLiveReaders) {
    const core::VcoExperiment e = core::make_vco_experiment(4);
    const lift::LiftResult lifted =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    ASSERT_EQ(lifted.faults.size(), 64u);

    ObsAllOn obs_on;

    std::atomic<bool> done{false};
    std::atomic<std::size_t> reads{0};
    std::vector<std::thread> readers;
    // Registry aggregation-on-read and trace snapshotting race against
    // the campaign's writers by design; TSan arbitrates.
    readers.emplace_back([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::string js = obs::Registry::global().to_json();
            ASSERT_FALSE(js.empty());
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });
    readers.emplace_back([&] {
        while (!done.load(std::memory_order_acquire)) {
            (void)obs::trace_event_count();
            (void)obs_on.sink->count_of("fault_retired");
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = 4;
    const anafault::CampaignResult res =
        anafault::run_campaign(e.sim_circuit, lifted.faults, opt);
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(res.results.size(), 64u);
    EXPECT_GT(res.detected(), 0u);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_GT(obs::trace_event_count(), 0u);
    EXPECT_EQ(obs_on.sink->count_of("campaign_end"), 1u);

    // Determinism across worker counts: the 4-worker verdicts must be
    // the serial campaign's verdicts, fault for fault.
    anafault::CampaignOptions serial = e.config.campaign;
    serial.threads = 1;
    const anafault::CampaignResult ref =
        anafault::run_campaign(e.sim_circuit, lifted.faults, serial);
    ASSERT_EQ(ref.results.size(), res.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        EXPECT_EQ(ref.results[i].fault_id, res.results[i].fault_id);
        EXPECT_EQ(ref.results[i].detect_time.has_value(),
                  res.results[i].detect_time.has_value());
    }
}

// ---------------------------------------------------------------------------
// Registry: sharded counters/histograms hammered by writers while a
// reader aggregates and a late registrant inserts new names (the map
// mutation the registry mutex guards).

TEST(ConcurrencyTest, RegistryAggregationDuringConcurrentWrites) {
    obs::Registry reg;
    constexpr int kWriters = 4;
    constexpr int kOps = 20000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            while (!go.load(std::memory_order_acquire)) {}
            obs::Counter& c = reg.counter("stress.ops");
            obs::Histogram& h = reg.histogram("stress.lat");
            for (int i = 0; i < kOps; ++i) {
                c.add(1);
                h.record(1e-6 * (w + 1));
                if (i % 4096 == 0)
                    reg.counter("stress.late." + std::to_string(w)).add(1);
            }
        });
    }
    std::thread reader([&] {
        while (!go.load(std::memory_order_acquire)) {}
        for (int i = 0; i < 200; ++i) {
            (void)reg.to_json();
            (void)reg.counter("stress.ops").value();
        }
    });
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    reader.join();
    EXPECT_EQ(reg.counter("stress.ops").value(),
              static_cast<std::uint64_t>(kWriters) * kOps);
    const auto snap = reg.histogram("stress.lat").snapshot();
    EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kWriters) * kOps);
}

// ---------------------------------------------------------------------------
// Event bus: emitters racing sink attach/detach, with a sink that is
// itself read concurrently.  Delivery is serialized by the bus mutex;
// the test pins that an event is never lost once attach returns and
// never delivered after detach returns.

TEST(ConcurrencyTest, EventBusEmitDuringAttachDetach) {
    auto sink = std::make_shared<obs::CaptureSink>();
    std::atomic<bool> done{false};
    std::vector<std::thread> emitters;
    for (int w = 0; w < 3; ++w) {
        emitters.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                if (obs::events_enabled())
                    obs::emit_event("stress_tick",
                                    {obs::arg("n", std::int64_t{1})});
            }
        });
    }
    for (int cycle = 0; cycle < 50; ++cycle) {
        obs::attach_event_sink(sink);
        (void)sink->count_of("stress_tick");
        obs::detach_event_sinks();
        (void)sink->take();
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : emitters) t.join();
    EXPECT_FALSE(obs::events_enabled());
}

// ---------------------------------------------------------------------------
// Trace lanes: per-thread writers appending spans while snapshots,
// counts and a Chrome-trace export run concurrently.

TEST(ConcurrencyTest, TraceLanesSnapshotDuringWrites) {
    obs::trace_reset();
    obs::enable_tracing(true);
    constexpr int kWriters = 3;
    constexpr int kSpansPerWriter = 2000;  // bounded: spans, not wall time
    std::atomic<int> writers_left{kWriters};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            obs::set_lane_name("stress-" + std::to_string(w));
            for (int i = 0; i < kSpansPerWriter; ++i) {
                obs::Span span(obs::Phase::Solve);
                span.arg("w", static_cast<std::int64_t>(w));
            }
            writers_left.fetch_sub(1, std::memory_order_release);
        });
    }
    // Snapshot concurrently for as long as the writers are appending.
    while (writers_left.load(std::memory_order_acquire) > 0) {
        (void)obs::trace_event_count();
        std::ostringstream os;
        obs::write_chrome_trace(os);
        ASSERT_NE(os.str().find("traceEvents"), std::string::npos);
    }
    for (std::thread& t : writers) t.join();
    obs::enable_tracing(false);
    EXPECT_EQ(obs::trace_event_count(),
              static_cast<std::size_t>(kWriters) * kSpansPerWriter);
    obs::trace_reset();
}

// ---------------------------------------------------------------------------
// Failpoint registry: workers evaluating hit() while the harness arms
// and disarms specs -- the pattern of a failpoint campaign driving a
// live scheduler.

TEST(ConcurrencyTest, FailpointHitDuringArmDisarm) {
    constexpr int kWorkers = 3;
    constexpr int kHitsPerWorker = 20000;  // bounded: calls, not wall time
    std::atomic<int> workers_left{kWorkers};
    std::atomic<std::size_t> survived{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&] {
            for (int i = 0; i < kHitsPerWorker; ++i) {
                try {
                    robust::hit("kernel.factor");
                    survived.fetch_add(1, std::memory_order_relaxed);
                } catch (const std::exception&) {
                    // an armed error action fired; that's the point
                }
            }
            workers_left.fetch_sub(1, std::memory_order_release);
        });
    }
    // Arm/disarm against the live workers until they finish.
    while (workers_left.load(std::memory_order_acquire) > 0) {
        robust::arm("kernel.factor=error@1+3");
        (void)robust::status();
        (void)robust::total_fired();
        robust::disarm_all();
    }
    for (std::thread& t : workers) t.join();
    robust::disarm_all();
    EXPECT_GT(survived.load(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler error bookkeeping: concurrent failing jobs must publish
// exactly one first_error and count every failure (the err_mu-guarded
// state the annotations cover).

TEST(ConcurrencyTest, SchedulerFirstErrorPublication) {
    constexpr std::size_t kJobs = 200;
    std::atomic<std::size_t> ran{0};
    std::vector<batch::Job> jobs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i)
        jobs[i] = batch::Job{i, static_cast<double>(i)};
    const batch::Scheduler sched(4);
    const batch::SchedulerStats stats = sched.run(
        std::move(jobs),
        [&](std::size_t idx) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (idx % 3 == 0)
                throw std::runtime_error("job " + std::to_string(idx));
        });
    EXPECT_EQ(ran.load(), kJobs);
    EXPECT_EQ(stats.executed, kJobs);
    EXPECT_EQ(stats.failed_jobs, (kJobs + 2) / 3);
    EXPECT_FALSE(stats.first_error.empty());
}

} // namespace
