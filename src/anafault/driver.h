// catlift/anafault/driver.h  (internal)
//
// The one campaign driver behind run_campaign, run_ac_campaign and
// run_dc_screen.  The paper runs every fault through "a repetitive cycle
// of three main phases": preprocess (inject), call the kernel,
// post-process (compare, statistics).  That cycle does not depend on the
// analysis, so it is written once here:
//
//   open the result store and load finished records, then what the
//   caller already knows (Known: the incremental engine's carried
//   verdicts and baseline nominal) -> the nominal, loaded from the store
//   or the caller, else simulated, and persisted -> the known records the
//   store lacks, persisted -> collapse into equivalence classes -> one
//   scheduler job per unfinished class: inject the representative, run
//   the retry ladder, publish, fan the verdict out -> fold the counters
//   of this run.
//
// Each analysis is a policy P:
//
//   Options / Output / Result   option struct, campaign result, per-fault
//                               result
//   kAnalysis                   "tran" | "ac" | "dc" (campaign_start)
//   kIntegratesInTime           whether the retry ladder's fixed-grid
//                               rung changes the analysis
//   manifest                    the public manifest function (run<P>
//                               and the incremental engine are written
//                               over P)
//   nominal(Output&, Span&)     run the nominal analysis, fill the result,
//                               return the fault SimOptions (carrying the
//                               campaign-shared symbolic cache)
//   to_nominal / from_nominal   the nominal's analysis data to / from the
//                               store's nominal record (from_nominal
//                               throws on a record it cannot use)
//   attempt(faulty, sim, r)     one kernel attempt -> ok / retryable
//   to_record / from_record     store round trip (identity for tran)
//   publish(r, FaultObs)        span args / counters beyond the common set
//   clear_cost(r)               zero the analysis' own kernel-cost fields
//                               of a fanned-out copy
//   fold(Output&, r)            fold one result of this run into the
//                               campaign counters
//
// Every per-fault result type carries the FaultOutcome fields (identity,
// containment and common kernel cost; anafault/campaign.h), which the
// driver handles itself, and answers is_detected(r) / ran(r).

#pragma once

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"
#include "anafault/retry.h"
#include "batch/collapse.h"
#include "batch/result_store.h"
#include "batch/scheduler.h"
#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace catlift::anafault::detail {

/// Static identity of one fault in the batch queue: everything that is
/// known before the kernel runs.
struct JobMeta {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    /// Electrical-effect signature; jobs sharing one are simulated once.
    std::string signature;
};

/// JobMeta of every fault of a LIFT list (signature: batch::effect_signature).
std::vector<JobMeta> fault_metas(const lift::FaultList& faults);

/// Chain every fault's identity into a manifest hash (the loop behind
/// chain_fault_manifest, also over parametric faults' metas).
std::uint64_t chain_fault_metas(std::uint64_t h,
                                const std::vector<JobMeta>& metas);

/// The transient campaign's analysis grid: opt.tran, else the circuit's
/// own .tran card.
netlist::TranSpec resolve_tran(const netlist::Circuit& ckt,
                               const CampaignOptions& opt);

/// The verdict name of a per-fault result or a store record.
template <class R>
const char* verdict_of(const R& r) {
    if (is_detected(r)) return "detected";
    if (ran(r)) return "undetected";
    return r.quarantined ? "quarantined" : "failed";
}

inline std::int64_t i64(std::size_t v) { return static_cast<std::int64_t>(v); }

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// Where one retired representative's observability lands.  Every
/// `count` goes to the span arg and the `campaign.<key>` registry counter
/// with the same value, so registry totals equal the sum over fault spans.
struct FaultObs {
    obs::Span* span = nullptr;  ///< null unless tracing
    bool metrics = false;
    std::vector<obs::TraceArg>* event = nullptr;  ///< fault_retired fields

    void arg(const char* key, double v) const {
        if (span) span->arg(key, v);
    }
    void arg(const char* key, std::string v) const {
        if (span) span->arg(key, std::move(v));
    }
    void count(const char* key, std::int64_t v) const {
        v = std::max<std::int64_t>(0, v);
        if (span) span->arg(key, v);
        if (metrics)
            obs::Registry::global()
                .counter(std::string("campaign.") + key)
                .add(static_cast<std::uint64_t>(v));
    }
    /// The detection coordinate: a span arg and a fault_retired field.
    void detect(const char* key, double v) const {
        arg(key, v);
        if (event) event->push_back(obs::arg(key, v));
    }
};

/// The campaign-shared symbolic order rides in the nominal record as one
/// "rank:<unknown>" scalar per unknown (none when the nominal kernel was
/// dense or sharing is off).
void put_rank(batch::NominalRecord& rec, const spice::SymbolicCache* cache);
std::shared_ptr<const spice::SymbolicCache> get_rank(
    const batch::NominalRecord& rec);

/// What a caller already knows about a campaign before it starts: verdicts
/// and a nominal record obtained elsewhere (the incremental engine's
/// carried baseline records and the baseline's nominal).  The driver's
/// loader treats them exactly like records of the open store, which it
/// reads first.
struct Known {
    std::vector<batch::FaultSimResult> records;
    std::optional<batch::NominalRecord> nominal;
};

/// Fill `res` with the nominal of `rec` when it is a usable record of P's
/// analysis; returns the fault SimOptions then, std::nullopt otherwise
/// (no record, another analysis, or one from_nominal rejects -- the
/// caller simulates instead).
template <class P>
std::optional<spice::SimOptions> load_nominal(
    P& p, const std::optional<batch::NominalRecord>& rec,
    typename P::Output& res) {
    if (!rec || rec->analysis != P::kAnalysis) return std::nullopt;
    try {
        p.from_nominal(*rec, res);
    } catch (const std::exception&) {
        return std::nullopt;
    }
    spice::SimOptions fault_sim = p.opt.sim;
    if (p.opt.share_symbolic) fault_sim.symbolic_cache = get_rank(*rec);
    res.batch.nominal_resumed = 1;
    return fault_sim;
}

/// Records-to-slots loader: fill every slot `done` does not mark yet with
/// its fault's record (the first record per fault id wins), mark it, and
/// split the provenance -- a record the incremental engine carried across
/// a layout revision is not prior-run work of *this* campaign.  Returns,
/// per slot, the record this call filled it from (null elsewhere).
template <class P>
std::vector<const batch::FaultSimResult*> load_slots(
    const std::vector<batch::FaultSimResult>& records,
    const std::vector<JobMeta>& metas, typename P::Output& res,
    std::vector<char>& done) {
    const std::size_t n = metas.size();
    res.results.resize(n);
    done.resize(n, 0);
    std::vector<const batch::FaultSimResult*> filled(n, nullptr);
    std::map<int, std::size_t> by_id;
    for (std::size_t i = 0; i < n; ++i) by_id[metas[i].fault_id] = i;
    for (const batch::FaultSimResult& rec : records) {
        const auto it = by_id.find(rec.fault_id);
        if (it == by_id.end() || done[it->second]) continue;
        res.results[it->second] = P::from_record(rec);
        done[it->second] = 1;
        filled[it->second] = &rec;
        if (rec.carried)
            ++res.batch.carried_from_store;
        else
            ++res.batch.resumed;
        if (obs::events_enabled())
            obs::emit_event("fault_resumed",
                            {obs::arg("fault_id", i64(rec.fault_id)),
                             obs::arg("carried", i64(rec.carried)),
                             obs::arg("verdict",
                                      std::string(verdict_of(rec)))});
    }
    return filled;
}

/// Close a representative's fault span and publish its observability
/// record: span args, registry counters incremented by exactly the same
/// values, and the retirement event.
template <class P>
void publish(obs::Span& sp, const typename P::Result& r,
             const std::string& signature) {
    const unsigned mask = obs::enabled_mask();
    const bool ev = obs::events_enabled();
    if (mask == 0 && !ev) {
        sp.end();
        return;
    }
    const std::string verdict = verdict_of(r);
    std::vector<obs::TraceArg> fields{obs::arg("fault_id", i64(r.fault_id)),
                                      obs::arg("verdict", verdict),
                                      obs::arg("sim_seconds", r.sim_seconds)};
    const FaultObs o{(mask & obs::kTracingBit) ? &sp : nullptr,
                     (mask & obs::kMetricsBit) != 0, ev ? &fields : nullptr};
    if (o.span) {
        sp.arg("fault_id", i64(r.fault_id));
        sp.arg("signature", signature);
        sp.arg("verdict", verdict);
        sp.arg("sim_seconds", r.sim_seconds);
        sp.arg("attempts", i64(r.attempts));
    }
    if (o.metrics) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("campaign.retired").add(1);
        if (is_detected(r)) reg.counter("campaign.detected").add(1);
    }
    o.count("nr_iterations", static_cast<std::int64_t>(r.nr_iterations));
    o.count("symbolic_cache_hits", i64(r.symbolic_cache_hits));
    P::publish(r, o);
    sp.end();
    if (ev) obs::emit_event("fault_retired", fields);
}

/// Copy a class representative's verdict to another member of its class:
/// identity from the member; kernel and retry cost stay attributed to the
/// representative alone, the verdict (quarantined included) fans out.
/// The copy is this campaign's collapse, never a carried record.
template <class P>
typename P::Result fan_out(const typename P::Result& rep, const JobMeta& m) {
    typename P::Result c = rep;
    c.fault_id = m.fault_id;
    c.description = m.description;
    c.probability = m.probability;
    c.carried = false;
    c.attempts = 1;
    c.retry_log.clear();
    c.sim_seconds = 0.0;
    c.nr_iterations = 0;
    c.symbolic_cache_hits = 0;
    c.ordering_seconds = 0.0;
    c.numeric_seconds = 0.0;
    P::clear_cost(c);
    return c;
}

/// Run the campaign of policy `p` over `metas`.  `make(i)` injects fault
/// i into the circuit; `manifest()` is the campaign's store binding;
/// `known` fills what the store does not.
template <class P, class Make, class Manifest>
typename P::Output drive(P& p, const std::vector<JobMeta>& metas, Make make,
                         Manifest manifest, const Known& known = {}) {
    using Result = typename P::Result;
    const typename P::Options& opt = p.opt;
    typename P::Output res;
    const std::size_t n = metas.size();
    res.batch.threads = std::max(1u, opt.threads);
    if (obs::events_enabled())
        obs::emit_event("campaign_start",
                        {obs::arg("analysis", std::string(P::kAnalysis)),
                         obs::arg("faults", i64(n)),
                         obs::arg("threads", i64(res.batch.threads))});

    // Result store first: load whatever a previous run of this exact
    // campaign already finished, its nominal included; then what the
    // caller knows fills the slots the store left empty.
    std::vector<char> done(n, 0);
    std::unique_ptr<batch::ResultStore> store;
    if (!opt.result_store.empty()) {
        if (!opt.resume) {
            std::error_code ec;
            std::filesystem::remove(opt.result_store, ec);
        }
        store = std::make_unique<batch::ResultStore>(
            opt.result_store, manifest(), opt.store_durability);
        load_slots<P>(store->loaded(), metas, res, done);
    }
    const std::vector<const batch::FaultSimResult*> from_known =
        load_slots<P>(known.records, metas, res, done);

    std::atomic<std::size_t> store_errors{0};
    // Contained store append: an I/O failure (disk full, injected torn
    // write) must not fail the campaign -- what was computed stays in
    // memory; it is merely not persisted, so a later resume re-simulates
    // it.  The failure is counted and published (fault_id -1: the
    // nominal record).
    auto contained = [&](std::int64_t fault_id, auto&& append) {
        if (!store) return;
        try {
            append();
        } catch (const std::exception& e) {
            store_errors.fetch_add(1, std::memory_order_relaxed);
            if (obs::metrics_enabled())
                obs::Registry::global().counter("store.append_errors").add(1);
            if (obs::events_enabled())
                obs::emit_event("store_error",
                                {obs::arg("fault_id", fault_id),
                                 obs::arg("error", std::string(e.what()))});
        }
    };
    auto safe_append = [&](const Result& r) {
        contained(r.fault_id, [&] { store->append(P::to_record(r)); });
    };

    // The nominal analysis (paper, ch. V), simulated once per store: an
    // earlier run's record is loaded, else the caller's, otherwise it is
    // simulated.  A nominal the store lacks is persisted before any fault
    // record.  Its result is shared read-only by every worker, and its
    // kernel's elimination order is the campaign-shared symbolic analysis
    // every faulty variant adopts.
    spice::SimOptions fault_sim;
    std::optional<spice::SimOptions> loaded;
    bool in_store = false;
    {
        obs::Span nsp(obs::Phase::Nominal);
        const auto t0 = std::chrono::steady_clock::now();
        if (store) loaded = load_nominal(p, store->loaded_nominal(), res);
        in_store = loaded.has_value();
        if (!loaded) loaded = load_nominal(p, known.nominal, res);
        fault_sim = loaded ? std::move(*loaded) : p.nominal(res, nsp);
        nsp.arg("source", std::string(loaded ? "store" : "kernel"));
        res.nominal_seconds = seconds_since(t0);
    }
    if (!in_store)
        contained(-1, [&] {
            if (loaded) {
                store->append_nominal(*known.nominal);
                return;
            }
            batch::NominalRecord rec = P::to_nominal(res);
            rec.analysis = P::kAnalysis;
            put_rank(rec, fault_sim.symbolic_cache.get());
            store->append_nominal(rec);
        });
    for (std::size_t i = 0; i < n; ++i)
        if (from_known[i])
            contained(metas[i].fault_id,
                      [&] { store->append(*from_known[i]); });

    // Snapshot of which slots were filled from the store or the caller,
    // before workers start marking their own slots done.
    const std::vector<char> resumed_here = done;

    // Equivalence classes over the *whole* list (so a resumed member can
    // still donate its verdict to unfinished members of its class).
    std::vector<std::string> sigs;
    sigs.reserve(n);
    for (const JobMeta& m : metas) sigs.push_back(m.signature);
    const std::vector<batch::CollapsedClass> classes =
        batch::collapse_by_signature(sigs);
    res.batch.classes = classes.size();

    // One job per class that still has unfinished members; the scheduler
    // simulates the likeliest faults first so weighted coverage converges
    // early.
    std::vector<batch::Job> jobs = batch::class_jobs(
        classes, [&](std::size_t m) { return metas[m].probability; });
    std::erase_if(jobs, [&](const batch::Job& j) {
        const auto& members = classes[j.index].members;
        return std::all_of(members.begin(), members.end(),
                           [&](std::size_t m) { return done[m] != 0; });
    });
    if (obs::events_enabled())
        for (const batch::Job& j : jobs) {
            const auto& members = classes[j.index].members;
            const auto rep =
                std::find_if(members.begin(), members.end(),
                             [&](std::size_t m) { return !done[m]; });
            if (rep == members.end()) continue;
            obs::emit_event("fault_scheduled",
                            {obs::arg("fault_id", i64(metas[*rep].fault_id)),
                             obs::arg("priority", j.priority),
                             obs::arg("class_size", i64(members.size()))});
        }

    std::atomic<std::size_t> kernel_runs{0};
    std::atomic<std::size_t> retries{0};
    auto run_class = [&](std::size_t c) {
        const std::vector<std::size_t>& members = classes[c].members;

        // A member finished by a previous run seeds the class verdict.
        const Result* verdict = nullptr;
        for (std::size_t m : members)
            if (done[m]) {
                verdict = &res.results[m];
                break;
            }

        if (!verdict) {
            const std::size_t rep =
                *std::find_if(members.begin(), members.end(),
                              [&](std::size_t m) { return !done[m]; });
            const JobMeta& meta = metas[rep];
            if (obs::events_enabled())
                obs::emit_event("fault_started",
                                {obs::arg("fault_id", i64(meta.fault_id))});
            // The fault span brackets injection, simulation and the
            // store append, so the store_append child span nests inside.
            obs::Span sp(obs::Phase::FaultSim);
            Result r;
            try {
                const netlist::Circuit faulty = make(rep);
                // Counted only once injection succeeded: a fault that
                // cannot even be injected never reaches the kernel.
                kernel_runs.fetch_add(1, std::memory_order_relaxed);
                // One clock around the whole ladder, injection excluded:
                // failed attempts are kernel time too.
                const auto t0 = std::chrono::steady_clock::now();
                LadderOutcome ladder = run_retry_ladder(
                    fault_sim, opt.max_retries, P::kIntegratesInTime,
                    meta.fault_id,
                    [&](const spice::SimOptions& sim, std::string& error) {
                        r = Result{};
                        Attempt a{false, true};
                        try {
                            a = p.attempt(faulty, sim, r);
                        } catch (const std::exception& e) {
                            r.error = e.what();
                        }
                        error = r.error;
                        return a;
                    });
                r.sim_seconds = seconds_since(t0);
                r.attempts = ladder.attempts;
                r.quarantined = ladder.quarantined;
                r.retry_log = std::move(ladder.retry_log);
                retries.fetch_add(ladder.attempts - 1,
                                  std::memory_order_relaxed);
            } catch (const std::exception& e) {
                // Injection failure (or any exception the ladder did not
                // already contain): injection is deterministic, so the
                // retry ladder has nothing to offer -- retire `failed`.
                r = Result{};
                r.error = e.what();
            }
            r.fault_id = meta.fault_id;
            r.description = meta.description;
            r.probability = meta.probability;
            res.results[rep] = std::move(r);
            done[rep] = 1;
            safe_append(res.results[rep]);
            publish<P>(sp, res.results[rep], meta.signature);
            verdict = &res.results[rep];
        }

        for (std::size_t m : members) {
            if (done[m]) continue;
            res.results[m] = fan_out<P>(*verdict, metas[m]);
            done[m] = 1;
            safe_append(res.results[m]);
            if (obs::metrics_enabled())
                obs::Registry::global().counter("campaign.fanned_out").add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retired",
                    {obs::arg("fault_id", i64(metas[m].fault_id)),
                     obs::arg("verdict",
                              std::string(verdict_of(res.results[m]))),
                     obs::arg("via", std::string("collapse"))});
        }
    };

    const batch::Scheduler scheduler(opt.threads);
    // The per-fault handling above already retires every failure; an
    // exception still reaching the scheduler (an injected worker fault, an
    // allocation failure between faults) is recorded and the remaining
    // faults keep their verdicts.
    const batch::SchedulerStats sstats = scheduler.run(jobs, run_class);
    res.batch.steals = sstats.steals;
    res.batch.job_errors = sstats.failed_jobs;
    res.batch.retries = retries.load();
    res.batch.store_errors = store_errors.load();
    // Kernel simulations actually run -- a class completed purely by
    // fanning out a resumed member's verdict does not count.
    res.batch.scheduled = kernel_runs.load();
    res.batch.collapsed = n - classes.size();

    // Aggregate kernel cost over *this run's* work only: loaded records
    // carry their original cost in the per-fault results, but a warm
    // resume or a carried verdict must not re-report it as kernel time
    // spent now.
    for (std::size_t i = 0; i < n; ++i) {
        if (resumed_here[i]) continue;
        const Result& r = res.results[i];
        res.batch.symbolic_cache_hits += r.symbolic_cache_hits;
        res.batch.ordering_seconds += r.ordering_seconds;
        res.batch.numeric_seconds += r.numeric_seconds;
        if (r.quarantined) ++res.batch.quarantined;
        P::fold(res, r);
    }
    if (obs::events_enabled())
        obs::emit_event(
            "campaign_end",
            {obs::arg("faults", i64(n)),
             obs::arg("detected", i64(res.detected())),
             obs::arg("scheduled", i64(res.batch.scheduled)),
             obs::arg("resumed", i64(res.batch.resumed)),
             obs::arg("carried_from_store",
                      i64(res.batch.carried_from_store))});
    return res;
}

/// The campaign of policy `p` over a LIFT fault list.
template <class P, class Manifest>
typename P::Output drive(P& p, const lift::FaultList& faults,
                         Manifest manifest, const Known& known = {}) {
    return drive(
        p, fault_metas(faults),
        [&](std::size_t i) {
            return inject(p.ckt, faults.faults[i], p.opt.injection);
        },
        manifest, known);
}

// ---------------------------------------------------------------------------
// The three policies (members defined beside each analysis' public API).

struct TranPolicy {
    using Options = CampaignOptions;
    using Output = CampaignResult;
    using Result = FaultSimResult;
    static constexpr const char* kAnalysis = "tran";
    static constexpr bool kIntegratesInTime = true;
    static constexpr auto manifest = &campaign_manifest;

    const netlist::Circuit& ckt;
    const Options& opt;
    netlist::TranSpec ts;
    const spice::Waveforms* nominal_wf = nullptr;

    TranPolicy(const netlist::Circuit& c, const Options& o)
        : ckt(c), opt(o), ts(resolve_tran(c, o)) {}

    spice::SimOptions nominal(Output& res, obs::Span& sp);
    static batch::NominalRecord to_nominal(const Output& res);
    void from_nominal(const batch::NominalRecord& rec, Output& res);
    Attempt attempt(const netlist::Circuit& faulty,
                    const spice::SimOptions& sim, Result& r) const;
    static const Result& to_record(const Result& r) { return r; }
    static const Result& from_record(const batch::FaultSimResult& rec) {
        return rec;
    }
    static void publish(const Result& r, const FaultObs& o);
    static void clear_cost(Result& r);
    static void fold(Output& res, const Result& r);
};

struct AcPolicy {
    using Options = AcCampaignOptions;
    using Output = AcCampaignResult;
    using Result = AcFaultResult;
    static constexpr const char* kAnalysis = "ac";
    static constexpr bool kIntegratesInTime = false;
    static constexpr auto manifest = &ac_campaign_manifest;

    const netlist::Circuit& ckt;
    const Options& opt;
    const spice::AcResult* nominal_ac = nullptr;

    spice::SimOptions nominal(Output& res, obs::Span& sp);
    static batch::NominalRecord to_nominal(const Output& res);
    void from_nominal(const batch::NominalRecord& rec, Output& res);
    Attempt attempt(const netlist::Circuit& faulty,
                    const spice::SimOptions& sim, Result& r) const;
    static batch::FaultSimResult to_record(const Result& r) {
        return ac_to_record(r);
    }
    static Result from_record(const batch::FaultSimResult& rec) {
        return ac_from_record(rec);
    }
    static void publish(const Result& r, const FaultObs& o);
    static void clear_cost(Result& r) { r.points_saved = 0; }
    static void fold(Output& res, const Result& r);
    /// Check the observed nodes against the nominal and bind it.
    void observe(Output& res);
};

struct DcPolicy {
    using Options = DcScreenOptions;
    using Output = DcScreenResult;
    using Result = DcFaultResult;
    static constexpr const char* kAnalysis = "dc";
    static constexpr bool kIntegratesInTime = false;
    static constexpr auto manifest = &dc_screen_manifest;

    const netlist::Circuit& ckt;
    const Options& opt;
    const DcScreenResult* nominal_res = nullptr;
    /// Warm-started solves and the NR iterations they saved, counted per
    /// kernel attempt (a fanned-out copy never solved anything).
    std::atomic<std::size_t> warm_hits{0};
    std::atomic<std::size_t> nr_saved{0};

    spice::SimOptions nominal(Output& res, obs::Span& sp);
    static batch::NominalRecord to_nominal(const Output& res);
    void from_nominal(const batch::NominalRecord& rec, Output& res);
    Attempt attempt(const netlist::Circuit& faulty,
                    const spice::SimOptions& sim, Result& r);
    static batch::FaultSimResult to_record(const Result& r) {
        return dc_to_record(r);
    }
    static Result from_record(const batch::FaultSimResult& rec) {
        return dc_from_record(rec);
    }
    static void publish(const Result& r, const FaultObs& o);
    static void clear_cost(Result&) {}
    static void fold(Output&, const Result&) {}
    /// Check the observed nodes against the nominal and bind it.
    void observe(Output& res);
};

// ---------------------------------------------------------------------------

/// The campaign of analysis P over a LIFT fault list, bound to P's public
/// manifest: the body of run_campaign, run_ac_campaign and run_dc_screen,
/// and of the incremental engine with its carried verdicts as `known`.
template <class P>
typename P::Output run(const netlist::Circuit& ckt,
                       const lift::FaultList& faults,
                       const typename P::Options& opt,
                       const Known& known = {}) {
    P p{ckt, opt};
    typename P::Output res = drive(
        p, faults, [&] { return P::manifest(ckt, faults, opt); }, known);
    if constexpr (std::is_same_v<P, DcPolicy>) {
        res.batch.warm_start_solves = p.warm_hits.load();
        res.batch.nr_saved_warm = p.nr_saved.load();
    }
    return res;
}

} // namespace catlift::anafault::detail
