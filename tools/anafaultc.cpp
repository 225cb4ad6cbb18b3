// anafaultc -- the AnaFAULT tool as a command-line program.
//
// Reads a SPICE deck (with its .tran card) and a LIFT fault list, runs the
// automatic fault simulation cycle for every fault, and reports coverage.
//
//   anafaultc <deck.sp> <faults.flt> [options]
//   anafaultc --repair-store <file>
//
// Every option is declared once, in kFlags below: its value, help text,
// parser, and whether fabric workers inherit it.  usage() prints the table.
// Fault collapsing and early abort always run; they have no flag.

#include "anafault/campaign.h"
#include "anafault/incremental.h"
#include "anafault/report.h"
#include "anafault/worker.h"
#include "batch/fabric.h"
#include "batch/shard.h"
#include "lift/fault.h"
#include "netlist/parser.h"
#include "obs/obs.h"
#include "robust/failpoint.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace catlift;

namespace {

/// One --worker-failpoints directive: arm `spec` in worker `slot`, on
/// every spawn (spawn < 0) or only on spawn index `spawn`.
struct WorkerFailpoint {
    std::size_t slot = 0;
    int spawn = -1;
    std::string spec;
};

/// Everything the command line sets.
struct Cli {
    anafault::CampaignOptions opt;
    std::string deck_path, flt_path, csv_path;
    std::string baseline_store, baseline_flt_path;
    std::string trace_path, metrics_path, events_path;
    std::string repair_path, merge_base;
    unsigned fabric_workers = 0;
    double worker_timeout = 30.0;
    bool worker_mode = false;
    bool has_fault_range = false;
    anafault::WorkerOptions worker;  ///< --fault-range, --heartbeat-fd
    std::vector<WorkerFailpoint> worker_failpoints;
    std::vector<std::string> forward_args;  ///< argv slices workers get
    double diff_tol = 0.05;
    bool table = false, plot = false, stats = false, progress = false;
};

/// Parses a whole decimal integer in [lo, hi]: no junk, no overflow.
bool whole_int(const std::string& s, long long lo, long long hi,
               long long& v) {
    char* end = nullptr;
    errno = 0;
    v = std::strtoll(s.c_str(), &end, 10);
    return end != s.c_str() && *end == '\0' && errno == 0 && v >= lo &&
           v <= hi;
}

/// One flag's value text, parsed strictly: a value that does not parse or
/// is out of range exits 2 naming the flag, never silently becomes 0.
struct Arg {
    const char* flag;
    const char* text;

    [[noreturn]] void fail(const char* need) const {
        std::fprintf(stderr, "anafaultc: %s needs %s\n", flag, need);
        std::exit(2);
    }
    /// A finite real number, > 0 or (with `zero_ok`) >= 0.
    double real(bool zero_ok = false) const {
        char* end = nullptr;
        errno = 0;
        const double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) ||
            v < 0.0 || (v == 0.0 && !zero_ok))
            fail(zero_ok ? "a non-negative number" : "a positive number");
        return v;
    }
    /// An integer in [lo, hi].
    long long count(long long lo, long long hi) const {
        long long v = 0;
        if (!whole_int(text, lo, hi, v))
            fail(lo > 0 ? "a positive count" : "a non-negative count");
        return v;
    }
    /// True for `yes`, false for `no`; anything else exits 2.
    bool is(const char* yes, const char* no) const {
        if (std::strcmp(text, yes) != 0 && std::strcmp(text, no) != 0)
            fail((std::string(yes) + " or " + no).c_str());
        return std::strcmp(text, yes) == 0;
    }
};

struct Flag {
    const char* name;
    const char* value;  ///< placeholder of its argument; nullptr: a switch
    /// Shapes the campaign (manifest or execution): the fabric parent
    /// forwards it verbatim to every worker.  Per-process plumbing (store
    /// paths, reporting, failpoints) is not forwarded.
    bool campaign;
    const char* help;
    void (*set)(Cli&, Arg);
};

constexpr bool kCampaign = true, kLocal = false;

const Flag kFlags[] = {
    {"--observe", "node", kCampaign,
     "monitored node (repeatable; default: .save nodes)",
     [](Cli& c, Arg a) { c.opt.detection.observed.push_back(a.text); }},
    {"--supply", "vsrc", kCampaign,
     "also monitor the branch current of this source",
     [](Cli& c, Arg a) {
         c.opt.detection.observed_supplies.push_back(a.text);
     }},
    {"--model", "m", kCampaign, "hard fault model: resistor (default) | source",
     [](Cli& c, Arg a) {
         c.opt.injection.model = a.is("source", "resistor")
                                     ? anafault::HardFaultModel::Source
                                     : anafault::HardFaultModel::Resistor;
     }},
    {"--v-tol", "V", kCampaign, "amplitude tolerance (default 2.0)",
     [](Cli& c, Arg a) { c.opt.detection.v_tol = a.real(); }},
    {"--t-tol", "s", kCampaign, "time tolerance (default 0.2e-6)",
     [](Cli& c, Arg a) { c.opt.detection.t_tol = a.real(true); }},
    {"--threads", "n", kCampaign, "parallel workers (default 1)",
     [](Cli& c, Arg a) { c.opt.threads = a.count(1, UINT_MAX); }},
    {"--store", "file", kLocal, "append-only result store (crash-resumable)",
     [](Cli& c, Arg a) { c.opt.result_store = a.text; }},
    {"--resume", nullptr, kLocal, "reuse finished faults from --store",
     [](Cli& c, Arg) { c.opt.resume = true; }},
    {"--workers", "n", kLocal,
     "multi-process fabric: shard the fault list by id range across n "
     "supervised worker processes (each a self-exec of this binary with "
     "--worker), merge the shards into --store and report as usual.  "
     "Workers that crash or hang are respawned with backoff; a fault that "
     "kills its worker twice in a row is retired `quarantined` (requires "
     "--store)",
     [](Cli& c, Arg a) { c.fabric_workers = a.count(1, UINT_MAX); }},
    {"--worker-timeout", "s", kLocal,
     "SIGKILL a worker silent for s seconds (default 30)",
     [](Cli& c, Arg a) { c.worker_timeout = a.real(); }},
    {"--worker-failpoints", "slot[.spawn]=spec", kLocal,
     "arm <spec> in one worker slot (every spawn, or only spawn index "
     "<spawn>); repeatable -- how the kill-worker CI smoke aims torn_crash "
     "/ poison at specific workers",
     [](Cli& c, Arg a) {
         const std::string s = a.text, key = s.substr(0, s.find('='));
         const auto dot = key.find('.');
         long long slot = 0, spawn = -1;
         if (key.size() + 1 >= s.size() ||
             !whole_int(key.substr(0, dot), 0, INT_MAX, slot) ||
             (dot != std::string::npos &&
              !whole_int(key.substr(dot + 1), 0, INT_MAX, spawn)))
             a.fail("slot[.spawn]=spec");
         c.worker_failpoints.push_back({static_cast<std::size_t>(slot),
                                        static_cast<int>(spawn),
                                        s.substr(key.size() + 1)});
     }},
    {"--worker", nullptr, kLocal, "(internal) run as a fabric worker process",
     [](Cli& c, Arg) { c.worker_mode = true; }},
    {"--fault-range", "lo:hi", kLocal,
     "(internal) fault-id range of this worker",
     [](Cli& c, Arg a) {
         const std::string s = a.text;
         const auto colon = s.find(':');
         long long lo = 0, hi = 0;
         if (colon == std::string::npos ||
             !whole_int(s.substr(0, colon), INT_MIN, INT_MAX, lo) ||
             !whole_int(s.substr(colon + 1), lo, INT_MAX, hi))
             a.fail("lo:hi fault ids");
         c.worker.id_lo = static_cast<int>(lo);
         c.worker.id_hi = static_cast<int>(hi);
         c.has_fault_range = true;
     }},
    {"--heartbeat-fd", "fd", kLocal, "(internal) supervision pipe fd",
     [](Cli& c, Arg a) { c.worker.heartbeat_fd = a.count(0, INT_MAX); }},
    {"--merge-shards", "base", kLocal,
     "fold every <base>.shard-* into the canonical store at <base> for the "
     "campaign of the given deck + fault list, report, and exit",
     [](Cli& c, Arg a) { c.merge_base = a.text; }},
    {"--baseline-store", "file", kLocal,
     "result store of a previous layout revision",
     [](Cli& c, Arg a) { c.baseline_store = a.text; }},
    {"--baseline-faults", "file", kLocal,
     "fault list that baseline store was run for; with --baseline-store, "
     "the campaign runs incrementally: signature-identical faults carry "
     "their baseline verdicts, only the added/changed remainder is "
     "simulated, and --store receives the merged (full) log",
     [](Cli& c, Arg a) { c.baseline_flt_path = a.text; }},
    {"--diff-tol", "frac", kLocal,
     "probability tolerance of the revision diff (default 0.05)",
     [](Cli& c, Arg a) { c.diff_tol = a.real(true); }},
    {"--no-adaptive", nullptr, kCampaign,
     "fixed-grid integration (no LTE stride control)",
     [](Cli& c, Arg) { c.opt.sim.adaptive = false; }},
    {"--lte-tol", "tol", kCampaign,
     "adaptive LTE acceptance tolerance (default 5e-3)",
     [](Cli& c, Arg a) { c.opt.sim.lte_tol = a.real(); }},
    {"--no-sparse", nullptr, kCampaign, "force the dense kernel at every size",
     [](Cli& c, Arg) { c.opt.sim.sparse_threshold = std::size_t(-1); }},
    {"--sparse", nullptr, kCampaign, "force the sparse kernel at every size",
     [](Cli& c, Arg) { c.opt.sim.sparse_threshold = 0; }},
    {"--no-bypass", nullptr, kCampaign,
     "disable the modified-Newton Jacobian bypass",
     [](Cli& c, Arg) { c.opt.sim.bypass = false; }},
    {"--bypass-tol", "tol", kCampaign,
     "bypass movement tolerance (default 1e-7)",
     [](Cli& c, Arg a) { c.opt.sim.bypass_tol = a.real(); }},
    {"--device-bypass-tol", "tol", kCampaign,
     "per-device stamp-reuse tolerance (campaign default 0: replay only "
     "bitwise-unchanged devices -- margin-safe; raise to skip settled "
     "devices' model evaluations)",
     [](Cli& c, Arg a) { c.opt.sim.device_bypass_tol = a.real(true); }},
    {"--no-share-symbolic", nullptr, kCampaign,
     "every faulty kernel runs its own ordering instead of adopting the "
     "nominal one",
     [](Cli& c, Arg) { c.opt.share_symbolic = false; }},
    {"--wall-budget", "s", kCampaign,
     "per-fault wall-clock deadline (0 = unlimited)",
     [](Cli& c, Arg a) { c.opt.sim.max_wall_seconds = a.real(true); }},
    {"--nr-budget", "n", kCampaign,
     "per-fault total-NR-iteration budget (0 = unlimited)",
     [](Cli& c, Arg a) { c.opt.sim.max_nr_total = a.count(0, LLONG_MAX); }},
    {"--step-budget", "n", kCampaign,
     "per-fault transient-step budget (0 = unlimited)",
     [](Cli& c, Arg a) { c.opt.sim.max_tran_steps = a.count(0, LLONG_MAX); }},
    {"--max-retries", "n", kCampaign,
     "last retry-ladder rung before quarantine (default 4; DC and AC skip "
     "the transient-only rung 2; 0 = first failure retires the fault as "
     "failed)",
     [](Cli& c, Arg a) { c.opt.max_retries = a.count(0, INT_MAX); }},
    {"--store-durability", "d", kCampaign,
     "flush (default: survives process death) | fsync (survives power "
     "loss; one fsync per append)",
     [](Cli& c, Arg a) {
         c.opt.store_durability = a.is("fsync", "flush")
                                      ? batch::Durability::Fsync
                                      : batch::Durability::Flush;
     }},
    {"--repair-store", "file", kLocal,
     "offline store repair: trim the file to its last intact record, "
     "report records kept / bytes dropped, and exit (no deck/fault list "
     "needed); every <file>.shard-* gets the same treatment, reported as a "
     "per-shard records/bytes-kept table",
     [](Cli& c, Arg a) { c.repair_path = a.text; }},
    {"--failpoints", "spec", kLocal,
     "arm deterministic failpoints, e.g. "
     "\"store.append=torn@3;kernel.factor=singular\" (also read from env "
     "CATLIFT_FAILPOINTS; see docs/robustness.md for the site catalog)",
     [](Cli&, Arg a) {
         try {
             robust::arm(a.text);
         } catch (const Error& e) {
             std::fprintf(stderr, "anafaultc: %s\n", e.what());
             std::exit(2);
         }
     }},
    {"--stats", nullptr, kLocal,
     "batch/kernel counter block (scheduler, bypass, symbolic cache, "
     "ordering/numeric time split, per-phase latency percentiles)",
     [](Cli& c, Arg) { c.stats = true; }},
    {"--trace", "file", kLocal,
     "record per-fault spans and write a Chrome trace_event JSON (open in "
     "Perfetto)",
     [](Cli& c, Arg a) { c.trace_path = a.text; }},
    {"--metrics-json", "file", kLocal,
     "write the metrics registry snapshot as JSON",
     [](Cli& c, Arg a) { c.metrics_path = a.text; }},
    {"--events", "file", kLocal, "stream campaign lifecycle events as JSONL",
     [](Cli& c, Arg a) { c.events_path = a.text; }},
    {"--progress", nullptr, kLocal, "live [k/n] progress line on stderr",
     [](Cli& c, Arg) { c.progress = true; }},
    {"--table", nullptr, kLocal, "per-fault result table",
     [](Cli& c, Arg) { c.table = true; }},
    {"--plot", nullptr, kLocal, "ASCII coverage plot",
     [](Cli& c, Arg) { c.plot = true; }},
    {"--csv", "file", kLocal, "coverage curve CSV",
     [](Cli& c, Arg a) { c.csv_path = a.text; }},
};

[[noreturn]] void usage() {
    std::fprintf(stderr, "usage: anafaultc <deck.sp> <faults.flt> [options]\n"
                         "       anafaultc --repair-store <file>\n"
                         "faults with one electrical effect simulate once; "
                         "every faulty run\n"
                         "stops at its first confirmed detection.\n"
                         "options:\n");
    for (const Flag& f : kFlags) {
        // Flag and value, then the help text word-wrapped in a column.
        std::string lhs = f.name, text;
        if (f.value) lhs += std::string(" <") + f.value + ">";
        if (lhs.size() > 25) {
            std::fprintf(stderr, "  %s\n", lhs.c_str());
            lhs.clear();
        }
        std::istringstream words(f.help);
        for (std::string w; words >> w;) {
            if (!text.empty() && text.size() + 1 + w.size() > 50) {
                std::fprintf(stderr, "  %-25s %s\n", lhs.c_str(),
                             text.c_str());
                lhs.clear();
                text.clear();
            }
            text += (text.empty() ? "" : " ") + w;
        }
        std::fprintf(stderr, "  %-25s %s\n", lhs.c_str(), text.c_str());
    }
    std::exit(2);
}

/// Name the argument the command line cannot take, then the usage table.
[[noreturn]] void reject(const std::string& why) {
    std::fprintf(stderr, "anafaultc: %s\n", why.c_str());
    usage();
}

Cli parse_args(int argc, char** argv) {
    Cli c;
    c.opt.detection.observed.clear();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const Flag* f =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag& row) { return a == row.name; });
        if (f == std::end(kFlags)) {
            if (!a.empty() && a[0] == '-') reject("unknown option " + a);
            if (c.deck_path.empty()) c.deck_path = a;
            else if (c.flt_path.empty()) c.flt_path = a;
            else reject("unexpected argument " + a);
            continue;
        }
        const char* value = nullptr;
        if (f->value) {
            if (++i >= argc) reject(a + " needs a value");
            value = argv[i];
        }
        f->set(c, Arg{f->name, value});
        if (f->campaign) {
            c.forward_args.push_back(a);
            if (value) c.forward_args.emplace_back(value);
        }
    }
    return c;
}

lift::FaultList read_faults_file(const std::string& path) {
    std::ifstream f(path);
    if (!f.good()) throw Error("cannot open fault list " + path);
    return lift::read_faultlist(f);
}

/// Path of this very binary, for the fabric's worker self-exec.
std::string self_exe(const char* argv0) {
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

} // namespace

int main(int argc, char** argv) {
    // Env-armed failpoints first, so an explicit --failpoints wins when
    // both name the same site.
    try {
        robust::arm_from_env();
    } catch (const Error& e) {
        std::fprintf(stderr, "anafaultc: CATLIFT_FAILPOINTS: %s\n", e.what());
        return 2;
    }
    Cli c = parse_args(argc, argv);
    anafault::CampaignOptions& opt = c.opt;
    // --repair-store is a standalone command: repair, report, exit.  The
    // canonical file's shards (a fabric campaign that died before its
    // merge) get the same tail-trim, reported as a per-shard table.
    if (!c.repair_path.empty()) {
        try {
            const std::vector<std::string> shards =
                batch::list_shards(c.repair_path);
            const bool base_exists = std::filesystem::exists(c.repair_path);
            if (!base_exists && shards.empty())
                throw Error("repair-store: no such file: " + c.repair_path);
            int rc = 0;
            if (base_exists) {
                const batch::RepairReport rep =
                    batch::repair_store(c.repair_path);
                if (!rep.header_ok) {
                    std::printf("repair %s: no valid store header -- "
                                "nothing recoverable, file left untouched\n",
                                c.repair_path.c_str());
                    rc = 1;
                } else {
                    std::printf("repair %s: manifest %016llx, %zu records "
                                "kept, %zu of %zu bytes kept (%zu trimmed)\n",
                                c.repair_path.c_str(),
                                static_cast<unsigned long long>(rep.manifest),
                                rep.records_kept, rep.bytes_kept,
                                rep.bytes_total,
                                rep.bytes_total - rep.bytes_kept);
                }
            }
            if (!shards.empty()) {
                std::printf("%-40s %8s %12s %10s\n", "shard", "records",
                            "bytes kept", "trimmed");
                for (const std::string& shard : shards) {
                    const batch::RepairReport rep =
                        batch::repair_store(shard);
                    if (!rep.header_ok) {
                        std::printf("%-40s %8s %12s %10s\n", shard.c_str(),
                                    "-", "no header", "-");
                        rc = 1;
                        continue;
                    }
                    std::printf("%-40s %8zu %12zu %10zu\n", shard.c_str(),
                                rep.records_kept, rep.bytes_kept,
                                rep.bytes_total - rep.bytes_kept);
                }
            }
            return rc;
        } catch (const Error& e) {
            std::fprintf(stderr, "anafaultc: %s\n", e.what());
            return 1;
        }
    }
    if (c.deck_path.empty() || c.flt_path.empty()) usage();
    const bool fabric = c.fabric_workers >= 1;
    const bool no_store = opt.result_store.empty();
    const struct {
        bool bad;
        const char* why;
    } combos[] = {
        {opt.resume && no_store, "--resume needs --store <file>"},
        {c.baseline_store.empty() != c.baseline_flt_path.empty(),
         "--baseline-store and --baseline-faults must be given together"},
        {fabric && no_store, "--workers needs --store <file>"},
        {fabric && (!c.baseline_store.empty() || c.worker_mode),
         "--workers cannot be combined with --worker or an incremental "
         "(--baseline-store) campaign"},
        {c.worker_mode && (no_store || !c.has_fault_range),
         "--worker needs --store <shard> and --fault-range lo:hi"},
    };
    for (const auto& k : combos)
        if (k.bad) {
            std::fprintf(stderr, "anafaultc: %s\n", k.why);
            return 2;
        }

    // Observation must be switched on before the campaign runs; --stats
    // needs the metrics bit too so the phase histograms fill in.
    if (c.stats || !c.metrics_path.empty()) obs::enable_metrics(true);
    if (!c.trace_path.empty()) obs::enable_tracing(true);
    if (!c.events_path.empty()) {
        auto sink = std::make_shared<obs::JsonlSink>(c.events_path);
        if (!sink->good()) {
            std::fprintf(stderr, "anafaultc: cannot write %s\n",
                         c.events_path.c_str());
            return 1;
        }
        obs::attach_event_sink(sink);
    }
    if (c.progress)
        obs::attach_event_sink(std::make_shared<obs::ProgressSink>());

    try {
        const netlist::Circuit ckt = netlist::parse_spice_file(c.deck_path);
        const lift::FaultList faults = read_faults_file(c.flt_path);

        if (opt.detection.observed.empty())
            opt.detection.observed = ckt.save_nodes;
        if (opt.detection.observed.empty())
            throw Error("no observed nodes: pass --observe or add .save to "
                        "the deck");

        // Internal fabric-worker mode: run the assigned id subrange into
        // the shard and exit quietly -- the supervisor owns all reporting.
        if (c.worker_mode) {
            c.worker.shard = opt.result_store;
            anafault::run_worker_campaign(ckt, faults, opt, c.worker);
            obs::detach_event_sinks();
            return 0;
        }

        // --merge-shards is a standalone command: fold, report, exit.
        if (!c.merge_base.empty()) {
            const std::uint64_t manifest =
                anafault::campaign_manifest(ckt, faults, opt);
            const batch::ShardMergeReport m = batch::merge_shards(
                c.merge_base, manifest, batch::list_shards(c.merge_base),
                opt.store_durability);
            std::printf("merge %s: %zu shards, %zu records in, %zu kept, "
                        "%zu duplicates%s\n",
                        c.merge_base.c_str(), m.shards_merged, m.records_in,
                        m.records_kept, m.duplicates,
                        m.changed ? "" : " (store already canonical)");
            obs::detach_event_sinks();
            return 0;
        }

        anafault::CampaignResult res;
        if (fabric) {
            const std::uint64_t manifest =
                anafault::campaign_manifest(ckt, faults, opt);
            std::vector<int> ids;
            ids.reserve(faults.faults.size());
            for (const lift::Fault& f : faults.faults) ids.push_back(f.id);

            batch::FabricOptions fo;
            fo.workers = c.fabric_workers;
            fo.worker_timeout_s = c.worker_timeout;
            fo.durability = opt.store_durability;
            const std::string exe = self_exe(argv[0]);
            batch::WorkerCommand cmd = [&](const batch::WorkerSlot& s) {
                std::vector<std::string> v = {
                    exe, c.deck_path, c.flt_path, "--worker", "--fault-range",
                    std::to_string(s.range.lo) + ":" +
                        std::to_string(s.range.hi),
                    "--store", s.shard, "--heartbeat-fd",
                    std::to_string(s.heartbeat_fd)};
                v.insert(v.end(), c.forward_args.begin(),
                         c.forward_args.end());
                for (const WorkerFailpoint& wf : c.worker_failpoints)
                    if (wf.slot == s.slot &&
                        (wf.spawn < 0 || wf.spawn == s.spawn_index)) {
                        v.push_back("--failpoints");
                        v.push_back(wf.spec);
                    }
                return v;
            };
            batch::PoisonRecord poison = [&](int id, int deaths,
                                             const std::string& log) {
                return anafault::quarantine_record(faults, id, deaths, log);
            };
            const batch::FabricReport frep = batch::run_fabric(
                ids, manifest, opt.result_store, cmd, poison, fo);
            // Merge whatever the workers produced: even an abandoned
            // fabric leaves a maximal, resumable canonical store behind.
            batch::merge_shards(opt.result_store, manifest,
                                batch::list_shards(opt.result_store),
                                opt.store_durability);
            if (!frep.completed) {
                for (const batch::SlotReport& sr : frep.slots)
                    if (!sr.completed)
                        std::fprintf(stderr,
                                     "anafaultc: worker %zu (faults %d..%d) "
                                     "abandoned after %d deaths\n",
                                     sr.slot, sr.range.lo, sr.range.hi,
                                     sr.deaths);
                return 1;
            }
            res = anafault::load_campaign_result(ckt, faults, opt,
                                                 opt.result_store);
            res.batch.threads = opt.threads;
            res.batch.worker_processes = frep.slots.size();
            res.batch.worker_spawns = frep.spawns;
            res.batch.worker_deaths = frep.deaths;
            res.batch.worker_timeouts = frep.timeouts;
            res.batch.poisoned = frep.poisoned;
        } else if (!c.baseline_store.empty()) {
            anafault::IncrementalOptions iopt;
            iopt.campaign = opt;
            iopt.baseline_store = c.baseline_store;
            iopt.rel_tol = c.diff_tol;
            auto inc = anafault::run_incremental_campaign(
                ckt, read_faults_file(c.baseline_flt_path), faults, iopt);
            std::printf("%s", anafault::incremental_summary(inc).c_str());
            res = std::move(inc.campaign);
        } else {
            res = anafault::run_campaign(ckt, faults, opt);
        }
        std::printf("%s", anafault::campaign_summary(res).c_str());
        if (c.stats) {
            const batch::BatchStats& b = res.batch;
            std::printf("\nbatch/kernel counters (current process):\n");
            std::printf("  threads %u, classes %zu, collapsed %zu\n",
                        b.threads, b.classes, b.collapsed);
            std::printf("  scheduled %zu, resumed %zu, carried from store "
                        "%zu\n",
                        b.scheduled, b.resumed, b.carried_from_store);
            std::printf("  early aborts %zu (steps saved %zu)\n",
                        b.early_aborts, b.steps_saved);
            std::printf("  steps integrated %zu, interpolated %zu\n",
                        b.steps_integrated, b.steps_interpolated);
            std::printf("  bypass solves %zu, device stamp skips %zu, "
                        "sparse refactors %zu\n",
                        b.bypass_solves, b.device_stamp_skips,
                        b.sparse_refactors);
            const double hit_rate =
                b.scheduled > 0 ? 100.0 *
                                      static_cast<double>(
                                          b.symbolic_cache_hits) /
                                      static_cast<double>(b.scheduled)
                                : 0.0;
            std::printf("  symbolic cache hits %zu / %zu kernels (%.1f%%)\n",
                        b.symbolic_cache_hits, b.scheduled, hit_rate);
            std::printf("  containment: retries %zu, quarantined %zu, "
                        "job errors %zu, store errors %zu\n",
                        b.retries, b.quarantined, b.job_errors,
                        b.store_errors);
            if (b.worker_processes > 0)
                std::printf("  fabric: %zu workers, %zu spawns, %zu deaths "
                            "(%zu timeouts), %zu poisoned\n",
                            b.worker_processes, b.worker_spawns,
                            b.worker_deaths, b.worker_timeouts, b.poisoned);
            for (const robust::FailpointStatus& fs : robust::status())
                std::printf("  failpoint %-20s hits %llu fired %llu\n",
                            fs.name.c_str(),
                            static_cast<unsigned long long>(fs.hits),
                            static_cast<unsigned long long>(fs.fired));
            // The ordering/numeric split as shares of the total kernel
            // time this run spent solving (nominal + faulty).
            const double kernel_s = res.nominal_seconds + res.total_seconds;
            auto pct = [kernel_s](double s) {
                return kernel_s > 0.0 ? 100.0 * s / kernel_s : 0.0;
            };
            std::printf("  kernel time %.4f s (nominal %.4f + faulty "
                        "%.4f)\n",
                        kernel_s, res.nominal_seconds, res.total_seconds);
            std::printf("  ordering time %.4f s (%.1f%% of kernel), "
                        "numeric refactor time %.4f s (%.1f%%)\n",
                        b.ordering_seconds, pct(b.ordering_seconds),
                        b.numeric_seconds, pct(b.numeric_seconds));
            std::printf("  phase latencies (seconds, current process):\n");
            for (std::uint8_t p = 0;
                 p < static_cast<std::uint8_t>(obs::Phase::kCount); ++p) {
                const auto ph = static_cast<obs::Phase>(p);
                const obs::HistogramSnapshot h =
                    obs::phase_histogram(ph).snapshot();
                if (h.count == 0) continue;
                std::printf("    %-12s count %-7llu p50 %.3e  p95 %.3e  "
                            "max %.3e\n",
                            obs::phase_name(ph),
                            static_cast<unsigned long long>(h.count),
                            h.p50(), h.p95(), h.max);
            }
        }
        if (c.plot)
            std::printf("\n%s",
                        anafault::coverage_plot_ascii(res).c_str());
        if (c.table)
            std::printf("\n%s", anafault::campaign_table(res).c_str());
        if (!c.csv_path.empty()) {
            std::ofstream f(c.csv_path);
            if (!f.good()) throw Error("cannot write " + c.csv_path);
            f << anafault::coverage_csv(res);
        }
        if (!c.trace_path.empty() &&
            !obs::write_chrome_trace_file(c.trace_path))
            throw Error("cannot write " + c.trace_path);
        if (!c.metrics_path.empty()) {
            std::ofstream f(c.metrics_path);
            if (!f.good()) throw Error("cannot write " + c.metrics_path);
            f << obs::Registry::global().to_json() << "\n";
        }
        obs::detach_event_sinks();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "anafaultc: %s\n", e.what());
        return 1;
    }
}
