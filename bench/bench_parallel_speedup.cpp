// Parallel fault-simulation speedup on the paper's VCO campaign.
//
// The seed loop (the paper's AnaFAULT cycle, follow-up [21] for the
// parallel variant) ran every fault to tstop with no dedup and no reuse.
// The batch engine adds a probability-ordered work-stealing scheduler,
// ERASER-style early abort at the first confirmed detection, and a
// fault-collapsing pre-pass.  This bench measures both across thread
// counts and emits machine-readable BENCH_parallel_speedup.json so the
// perf trajectory is recorded run over run.

#include "anafault/worker.h"
#include "batch/fabric.h"
#include "batch/shard.h"
#include "core/cat.h"
#include "obs/obs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

using namespace catlift;

namespace {

struct Sample {
    std::string label;
    unsigned threads = 1;
    bool early_abort = false;
    bool collapse = false;
    bool adaptive = false;
    bool bypass = true;  ///< not in the JSON: only seed-serial turns it off
    double wall_s = 0.0;
    std::size_t early_aborts = 0;
    std::size_t steps_saved = 0;
    std::size_t collapsed = 0;
};

/// Runs the campaign in the configuration `out` names and records its
/// wall time and batch counters there.
void run_once(const core::VcoExperiment& e, const lift::FaultList& faults,
              Sample& out) {
    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = out.threads;
    opt.early_abort = out.early_abort;
    opt.collapse = out.collapse;
    opt.sim.adaptive = out.adaptive;
    opt.sim.bypass = out.bypass;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = anafault::run_campaign(e.sim_circuit, faults, opt);
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.early_aborts = res.batch.early_aborts;
    out.steps_saved = res.batch.steps_saved;
    out.collapsed = res.batch.collapsed;
}

/// Observability overhead on the standard campaign configuration
/// (threads=4, abort+collapse+adaptive), plus the recorded
/// trace itself for the CI trace checker.
struct ObsSample {
    double wall_off_s = 0.0;
    double wall_traced_s = 0.0;
    double traced_overhead_ratio = 0.0;
    std::size_t trace_events = 0;
    double disabled_event_cost_ns = 0.0;
    double traced_off_overhead_est = 0.0;
    bool verdicts_identical = false;
};

bool same_verdicts(const anafault::CampaignResult& a,
                   const anafault::CampaignResult& b) {
    if (a.results.size() != b.results.size()) return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const auto& x = a.results[i];
        const auto& y = b.results[i];
        if (x.fault_id != y.fault_id || x.simulated != y.simulated ||
            x.detect_time.has_value() != y.detect_time.has_value())
            return false;
        if (x.detect_time && *x.detect_time != *y.detect_time) return false;
    }
    return true;
}

ObsSample measure_obs_overhead(const core::VcoExperiment& e,
                               const lift::FaultList& faults) {
    ObsSample out;
    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = 4;

    // Paired off/traced runs of the identical campaign.  The traced run
    // carries the full load: metrics, span tracing and a live event sink
    // (NullSink -- the emit path runs, the payload is discarded).
    const auto t0 = std::chrono::steady_clock::now();
    const auto res_off = anafault::run_campaign(e.sim_circuit, faults, opt);
    out.wall_off_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    obs::Registry::global().reset();
    obs::trace_reset();
    obs::enable_metrics(true);
    obs::enable_tracing(true);
    obs::attach_event_sink(std::make_shared<obs::NullSink>());
    const auto t1 = std::chrono::steady_clock::now();
    const auto res_on = anafault::run_campaign(e.sim_circuit, faults, opt);
    out.wall_traced_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t1)
                            .count();
    obs::enable_tracing(false);
    obs::detach_event_sinks();

    out.traced_overhead_ratio =
        out.wall_off_s > 0.0 ? out.wall_traced_s / out.wall_off_s - 1.0 : 0.0;
    out.trace_events = obs::trace_event_count();
    out.verdicts_identical = same_verdicts(res_off, res_on);

    // The traced-off cost model: every span/event site the traced run
    // crossed costs one disabled-Span check when observation is off.
    // Measure that check directly and scale by the site count.
    constexpr std::size_t kIters = 5'000'000;
    obs::enable_metrics(false);
    const auto t2 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kIters; ++i)
        obs::Span sp(obs::Phase::Solve);
    const double bench_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t2)
                               .count();
    out.disabled_event_cost_ns = 1e9 * bench_s / kIters;
    out.traced_off_overhead_est =
        out.wall_off_s > 0.0
            ? static_cast<double>(out.trace_events) *
                  out.disabled_event_cost_ns * 1e-9 / out.wall_off_s
            : 0.0;
    obs::enable_metrics(true);  // keep metrics live for the JSON snapshot
    return out;
}

// ---------------------------------------------------------------------------
// Multi-process fabric overhead (batch/fabric.h)

/// Supervision cost of the crash-isolated fabric on a kill-free run.
/// Both sides of the overhead ratio time the *whole* job -- experiment
/// construction, layout fault extraction, nominal + campaign -- once:
/// direct runs it in-process, fabric w1 runs it in one supervised worker
/// process, so the difference is exactly what the fabric adds (spawn,
/// heartbeats, the supervision poll loop, the shard merge).
struct FabricSample {
    double wall_direct_s = 0.0;  ///< single process, threads=1, store on
    double wall_w1_s = 0.0;      ///< 1 supervised worker + merge
    double wall_w2_s = 0.0;
    double wall_w4_s = 0.0;
    double supervision_overhead = 0.0;  ///< wall_w1 / wall_direct - 1
    std::size_t spawns = 0;             ///< across all fabric runs
    std::size_t deaths = 0;             ///< must stay 0 (nothing injected)
    bool verdicts_identical = false;    ///< merged store vs direct run
};

std::string bench_self_exe(const char* argv0) {
#if defined(__linux__)
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return argv0;
}

double now_minus(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// `bench_parallel_speedup --fabric-worker <shard> <lo> <hi> <fd>`:
/// one supervised worker of the fabric row below (self-exec'd).
int run_fabric_worker(char** argv) {
    const core::VcoExperiment e = core::make_vco_experiment();
    const lift::LiftResult lifted =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = 1;
    anafault::WorkerOptions w;
    w.shard = argv[2];
    w.id_lo = std::atoi(argv[3]);
    w.id_hi = std::atoi(argv[4]);
    w.heartbeat_fd = std::atoi(argv[5]);
    anafault::run_worker_campaign(e.sim_circuit, lifted.faults, opt, w);
    return 0;
}

FabricSample measure_fabric(const char* argv0) {
    FabricSample out;
    const std::string direct_store = "BENCH_fabric_direct.store";
    const std::string fab_base = "BENCH_fabric.store";
    const std::string exe = bench_self_exe(argv0);
    auto cleanup = [&] {
        std::error_code ec;
        std::filesystem::remove(direct_store, ec);
        std::filesystem::remove(fab_base, ec);
        for (const std::string& s : batch::list_shards(fab_base))
            std::filesystem::remove(s, ec);
    };

    // Direct single-process reference (min of 2 reps).
    anafault::CampaignResult direct;
    out.wall_direct_s = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        cleanup();
        const auto t0 = std::chrono::steady_clock::now();
        const core::VcoExperiment e = core::make_vco_experiment();
        const auto lifted =
            lift::extract_faults(e.layout, e.config.tech, e.config.lift);
        anafault::CampaignOptions opt = e.config.campaign;
        opt.threads = 1;
        opt.result_store = direct_store;
        direct = anafault::run_campaign(e.sim_circuit, lifted.faults, opt);
        out.wall_direct_s = std::min(out.wall_direct_s, now_minus(t0));
    }

    // The fabric needs the manifest and fault ids up front; this
    // (deliberately untimed) setup is the supervisor's own startup cost
    // in anafaultc too, where it is shared with the in-process path.
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto lifted =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = 1;
    const std::uint64_t manifest =
        anafault::campaign_manifest(e.sim_circuit, lifted.faults, opt);
    std::vector<int> ids;
    for (const lift::Fault& f : lifted.faults.faults) ids.push_back(f.id);

    batch::WorkerCommand cmd = [&](const batch::WorkerSlot& s) {
        return std::vector<std::string>{
            exe, "--fabric-worker", s.shard, std::to_string(s.range.lo),
            std::to_string(s.range.hi), std::to_string(s.heartbeat_fd)};
    };
    batch::PoisonRecord poison = [&](int id, int deaths,
                                     const std::string& log) {
        return anafault::quarantine_record(lifted.faults, id, deaths, log);
    };
    anafault::CampaignResult merged;
    auto fabric_once = [&](unsigned workers) {
        cleanup();
        batch::FabricOptions fo;
        fo.workers = workers;
        fo.worker_timeout_s = 120.0;
        const auto t0 = std::chrono::steady_clock::now();
        const batch::FabricReport rep =
            batch::run_fabric(ids, manifest, fab_base, cmd, poison, fo);
        batch::merge_shards(fab_base, manifest,
                            batch::list_shards(fab_base));
        const double wall = now_minus(t0);
        out.spawns += rep.spawns;
        out.deaths += rep.deaths + rep.timeouts + rep.spawn_failures;
        merged = anafault::load_campaign_result(e.sim_circuit, lifted.faults,
                                                opt, fab_base);
        return wall;
    };

    out.wall_w1_s = 1e30;
    for (int rep = 0; rep < 2; ++rep)
        out.wall_w1_s = std::min(out.wall_w1_s, fabric_once(1));
    out.verdicts_identical = same_verdicts(direct, merged);
    out.wall_w2_s = fabric_once(2);
    out.wall_w4_s = fabric_once(4);
    out.verdicts_identical =
        out.verdicts_identical && same_verdicts(direct, merged);
    out.supervision_overhead =
        out.wall_direct_s > 0.0 ? out.wall_w1_s / out.wall_direct_s - 1.0
                                : 0.0;
    cleanup();
    return out;
}

} // namespace

int main(int argc, char** argv) {
    if (argc >= 6 && std::string(argv[1]) == "--fabric-worker")
        return run_fabric_worker(argv);
    std::printf("== batch fault simulation: VCO campaign ==\n\n");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("  hardware threads: %u\n\n", hw);

    core::VcoExperiment e = core::make_vco_experiment();
    const auto lift_res =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    std::printf("  faults: %zu\n\n", lift_res.faults.size());

    std::vector<Sample> samples;

    // Unmeasured warmup so allocator/page-cache effects are not charged
    // to whichever configuration happens to run first.
    {
        Sample warmup;
        run_once(e, lift_res.faults, warmup);
    }

    // The seed's serial loop on today's kernel with every shortcut off:
    // threads=1, no collapsing, fixed-grid integration, no Jacobian
    // bypass, every run integrated to tstop -- so the batch rows measure
    // the scheduler, early abort, collapsing, adaptive stepping and the
    // bypass against it.
    {
        Sample s;
        s.label = "seed-serial";
        s.bypass = false;
        run_once(e, lift_res.faults, s);
        samples.push_back(s);
    }
    const double t_seed = samples[0].wall_s;

    // All thread counts are measured regardless of the host's core count:
    // the acceptance ratio is defined at threads=4, and oversubscription is
    // itself a data point.
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        for (const bool abort_on : {false, true}) {
            Sample s;
            s.label = "batch-t" + std::to_string(n) +
                      (abort_on ? "-abort" : "-noabort");
            s.threads = n;
            s.early_abort = abort_on;
            s.collapse = true;
            s.adaptive = true;  // campaign default: LTE stride control
            run_once(e, lift_res.faults, s);
            samples.push_back(s);
        }
    }

    std::printf("  %-20s %8s %10s %9s %8s %12s\n", "config", "threads",
                "wall [s]", "speedup", "aborts", "steps saved");
    for (const Sample& s : samples)
        std::printf("  %-20s %8u %10.3f %8.2fx %8zu %12zu\n",
                    s.label.c_str(), s.threads, s.wall_s, t_seed / s.wall_s,
                    s.early_aborts, s.steps_saved);
    std::printf("\n");

    const ObsSample obs_s = measure_obs_overhead(e, lift_res.faults);
    std::printf("  observability: off %.3f s, traced %.3f s (%+.1f%%), "
                "%zu trace events\n",
                obs_s.wall_off_s, obs_s.wall_traced_s,
                100.0 * obs_s.traced_overhead_ratio, obs_s.trace_events);
    std::printf("  disabled span check %.2f ns; traced-off overhead "
                "estimate %.4f%% of campaign (guard <2%%)\n",
                obs_s.disabled_event_cost_ns,
                100.0 * obs_s.traced_off_overhead_est);
    std::printf("  verdicts traced vs untraced: %s\n\n",
                obs_s.verdicts_identical ? "identical" : "DIFFER");
    if (obs::write_chrome_trace_file("TRACE_vco_campaign.json"))
        std::printf("  wrote TRACE_vco_campaign.json\n");

    const FabricSample fab = measure_fabric(argv[0]);
    std::printf("\n  fabric: direct %.3f s | w1 %.3f s (supervision "
                "%+.1f%%) | w2 %.3f s | w4 %.3f s\n",
                fab.wall_direct_s, fab.wall_w1_s,
                100.0 * fab.supervision_overhead, fab.wall_w2_s,
                fab.wall_w4_s);
    std::printf("  fabric: %zu spawns, %zu deaths (guard: 0), merged "
                "verdicts vs direct: %s\n\n",
                fab.spawns, fab.deaths,
                fab.verdicts_identical ? "identical" : "DIFFER");

    std::ofstream js("BENCH_parallel_speedup.json");
    js << "{\n  \"bench\": \"parallel_speedup\",\n";
    js << "  \"circuit\": \"vco\",\n";
    js << "  \"faults\": " << lift_res.faults.size() << ",\n";
    js << "  \"hardware_threads\": " << hw << ",\n";
    js << "  \"baseline\": \"seed-serial\",\n  \"samples\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        js << "    {\"label\": \"" << s.label << "\", \"threads\": "
           << s.threads << ", \"early_abort\": "
           << (s.early_abort ? "true" : "false") << ", \"collapse\": "
           << (s.collapse ? "true" : "false") << ", \"adaptive\": "
           << (s.adaptive ? "true" : "false") << ", \"wall_s\": " << s.wall_s
           << ", \"speedup_vs_seed\": " << t_seed / s.wall_s
           << ", \"early_aborts\": " << s.early_aborts
           << ", \"steps_saved\": " << s.steps_saved
           << ", \"collapsed\": " << s.collapsed << "}"
           << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    js << "  ],\n";
    js << "  \"obs\": {\"wall_off_s\": " << obs_s.wall_off_s
       << ", \"wall_traced_s\": " << obs_s.wall_traced_s
       << ", \"traced_overhead_ratio\": " << obs_s.traced_overhead_ratio
       << ", \"trace_events\": " << obs_s.trace_events
       << ", \"disabled_event_cost_ns\": " << obs_s.disabled_event_cost_ns
       << ", \"traced_off_overhead_est\": " << obs_s.traced_off_overhead_est
       << ", \"verdicts_identical_traced\": "
       << (obs_s.verdicts_identical ? "true" : "false") << "},\n";
    js << "  \"fabric\": {\"wall_direct_s\": " << fab.wall_direct_s
       << ", \"wall_w1_s\": " << fab.wall_w1_s
       << ", \"wall_w2_s\": " << fab.wall_w2_s
       << ", \"wall_w4_s\": " << fab.wall_w4_s
       << ", \"supervision_overhead\": " << fab.supervision_overhead
       << ", \"spawns\": " << fab.spawns
       << ", \"deaths\": " << fab.deaths
       << ", \"verdicts_identical_fabric\": "
       << (fab.verdicts_identical ? "true" : "false") << "},\n";
    js << "  \"metrics\": " << obs::Registry::global().to_json("  ") << "\n";
    js << "}\n";
    std::printf("  wrote BENCH_parallel_speedup.json\n");
    return 0;
}
