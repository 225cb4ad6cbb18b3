#include "batch/fabric.h"

#include "batch/shard.h"
#include "geom/base.h"
#include "obs/obs.h"
#include "robust/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
extern "C" char** environ;
#endif

namespace catlift::batch {

std::vector<FaultRange> partition_fault_ranges(const std::vector<int>& ids,
                                               unsigned workers) {
    require(workers >= 1, "fabric: need at least one worker");
    std::vector<int> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<FaultRange> out;
    if (sorted.empty()) return out;
    const std::size_t n = sorted.size();
    const std::size_t slots = std::min<std::size_t>(workers, n);
    std::size_t begin = 0;
    for (std::size_t k = 0; k < slots; ++k) {
        // First (n % slots) ranges take the extra fault.
        const std::size_t count = n / slots + (k < n % slots ? 1 : 0);
        FaultRange r;
        r.lo = sorted[begin];
        r.hi = sorted[begin + count - 1];
        r.count = count;
        out.push_back(r);
        begin += count;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Worker side

/// Period of the worker's Alive tick: far below any sane
/// FabricOptions::worker_timeout_s.
constexpr std::chrono::milliseconds kHeartbeatInterval{50};

HeartbeatEmitter::HeartbeatEmitter(int fd) : fd_(fd) {
    beat(BeatKind::Alive, -1);
    ticker_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(kHeartbeatInterval);
            if (stop_.load(std::memory_order_relaxed)) break;
            beat(BeatKind::Alive, -1);
        }
    });
}

HeartbeatEmitter::~HeartbeatEmitter() {
    stop_.store(true, std::memory_order_relaxed);
    if (ticker_.joinable()) ticker_.join();
}

void HeartbeatEmitter::fault_started(int fault_id) {
    beat(BeatKind::FaultStarted, fault_id);
    if (auto fp = robust::hit("worker.fault")) {
        // Poison-fault injection: `worker.fault=poison:ID` kills this
        // worker the instant fault ID starts, every time it starts -- the
        // deterministically-crashing fault the supervisor must learn to
        // quarantine.
        if (fp->action == robust::FailAction::Poison &&
            static_cast<int>(fp->param) == fault_id)
            std::_Exit(137);
    }
}

void HeartbeatEmitter::fault_retired(int fault_id) {
    beat(BeatKind::FaultRetired, fault_id);
}

void HeartbeatEmitter::beat(BeatKind kind, std::int32_t fault_id) {
#if defined(__unix__) || defined(__APPLE__)
    std::int32_t frame[2] = {static_cast<std::int32_t>(kind), fault_id};
    // One 8-byte write (<= PIPE_BUF) is atomic; a dead supervisor (EPIPE
    // with SIGPIPE ignored, or EBADF) is not the worker's problem.
    [[maybe_unused]] ssize_t n = ::write(fd_, frame, sizeof frame);
#else
    (void)kind;
    (void)fault_id;
#endif
}

void HeartbeatSink::on_event(const char* name, std::uint64_t,
                             const std::vector<obs::TraceArg>& fields) {
    const bool started = std::strcmp(name, "fault_started") == 0;
    const bool retired = !started &&
                         (std::strcmp(name, "fault_retired") == 0 ||
                          std::strcmp(name, "fault_resumed") == 0 ||
                          std::strcmp(name, "fault_quarantined") == 0);
    if (!started && !retired) return;
    for (const auto& f : fields) {
        if (std::strcmp(f.key, "fault_id") != 0 ||
            f.kind != obs::TraceArg::Kind::I64)
            continue;
        if (started)
            hb_.fault_started(static_cast<int>(f.i));
        else
            hb_.fault_retired(static_cast<int>(f.i));
        return;
    }
}

// ---------------------------------------------------------------------------
// Supervisor

#if defined(__unix__) || defined(__APPLE__)

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

enum class SlotState { Pending, Running, Backoff, Done, Failed };

struct Slot {
    SlotState state = SlotState::Pending;
    WorkerSlot worker;            ///< template handed to WorkerCommand
    pid_t pid = -1;
    int rfd = -1;                 ///< supervisor end of the heartbeat pipe
    std::string carry;            ///< partial beat frame between reads
    Clock::time_point last_beat;
    Clock::time_point backoff_until;
    int inflight = -1;            ///< fault started but not retired
    int last_candidate = -2;      ///< in-flight fault at the previous death
    bool timed_out = false;       ///< current incarnation was SIGKILLed
    std::string death_log;        ///< accumulated retry_log text
    SlotReport rep;
};

void bump(const char* counter) {
    if (obs::metrics_enabled())
        obs::Registry::global().counter(counter).add(1);
}

void close_pipe(Slot& s) {
    if (s.rfd >= 0) {
        ::close(s.rfd);
        s.rfd = -1;
    }
}

bool spawn_worker(Slot& s, const WorkerCommand& command) {
    s.worker.spawn_index = s.rep.spawns + s.rep.spawn_failures;
    try {
        robust::hit("worker.spawn");  // generic actions fail the launch
    } catch (const std::exception& e) {
        ++s.rep.spawn_failures;
        bump("fabric.spawn_failures");
        if (obs::events_enabled())
            obs::emit_event(
                "worker_spawn_failed",
                {obs::arg("slot", static_cast<std::int64_t>(s.worker.slot)),
                 obs::arg("error", std::string(e.what()))});
        return false;
    }

    const std::vector<std::string> argv_s = command(s.worker);
    require(!argv_s.empty(), "fabric: WorkerCommand returned empty argv");
    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (const std::string& a : argv_s)
        argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
        ++s.rep.spawn_failures;
        bump("fabric.spawn_failures");
        return false;
    }
    // Supervisor end: nonblocking (the poll loop drains opportunistically)
    // and close-on-exec (no worker inherits another worker's channel).
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // dup2 clears CLOEXEC on the target, so the child keeps exactly fd 3.
    posix_spawn_file_actions_adddup2(&fa, fds[1], kHeartbeatFd);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        ++s.rep.spawn_failures;
        bump("fabric.spawn_failures");
        return false;
    }

    s.pid = pid;
    s.rfd = fds[0];
    s.carry.clear();
    s.last_beat = Clock::now();
    s.timed_out = false;
    s.state = SlotState::Running;
    ++s.rep.spawns;
    bump("fabric.spawns");
    if (obs::events_enabled())
        obs::emit_event(
            "worker_spawned",
            {obs::arg("slot", static_cast<std::int64_t>(s.worker.slot)),
             obs::arg("pid", static_cast<std::int64_t>(pid)),
             obs::arg("spawn", static_cast<std::int64_t>(s.worker.spawn_index)),
             obs::arg("id_lo", static_cast<std::int64_t>(s.worker.range.lo)),
             obs::arg("id_hi", static_cast<std::int64_t>(s.worker.range.hi))});
    return true;
}

void drain_beats(Slot& s) {
    char buf[512];
    for (;;) {
        const ssize_t n = ::read(s.rfd, buf, sizeof buf);
        if (n > 0) {
            s.carry.append(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) == sizeof buf) continue;
        }
        break;  // EOF, EAGAIN or error: process what we have
    }
    while (s.carry.size() >= 8) {
        std::int32_t kind = 0, fault_id = 0;
        std::memcpy(&kind, s.carry.data(), 4);
        std::memcpy(&fault_id, s.carry.data() + 4, 4);
        s.carry.erase(0, 8);
        if (auto fp = robust::hit("fabric.heartbeat")) {
            // `torn`: the beat is lost in transit -- liveness is not
            // refreshed and progress not observed, driving the timeout
            // detector exactly as a wedged worker would.
            if (fp->action == robust::FailAction::Torn) continue;
        }
        s.last_beat = Clock::now();
        if (kind == static_cast<std::int32_t>(BeatKind::FaultStarted))
            s.inflight = fault_id;
        else if (kind == static_cast<std::int32_t>(BeatKind::FaultRetired) &&
                 fault_id == s.inflight)
            s.inflight = -1;
    }
}

/// Ceiling of the respawn backoff [s].
constexpr double kBackoffCapS = 5.0;

void handle_death(Slot& s, const std::string& how, std::uint64_t manifest,
                  const PoisonRecord& poison_record,
                  const FabricOptions& opt) {
    ++s.rep.deaths;
    bump("fabric.deaths");
    const int candidate = s.inflight;
    s.inflight = -1;
    s.death_log += "attempt " + std::to_string(s.rep.deaths) + " [worker " +
                   std::to_string(s.worker.slot) + "]: " + how;
    if (candidate >= 0)
        s.death_log += " while simulating fault " + std::to_string(candidate);
    s.death_log += "; ";
    if (obs::events_enabled())
        obs::emit_event(
            "worker_death",
            {obs::arg("slot", static_cast<std::int64_t>(s.worker.slot)),
             obs::arg("candidate", static_cast<std::int64_t>(candidate)),
             obs::arg("deaths", static_cast<std::int64_t>(s.rep.deaths)),
             obs::arg("how", how)});

    if (candidate >= 0 && candidate == s.last_candidate) {
        // Two consecutive deaths with the same fault in flight: convicted.
        // Retire it `quarantined` straight into the shard (the dead worker
        // holds no lock and ResultStore's open trims any torn tail), so
        // the respawned worker's resume pass skips it.
        FaultSimResult rec =
            poison_record(candidate, s.rep.deaths, s.death_log);
        ResultStore store(s.worker.shard, manifest, opt.durability);
        store.append(rec);
        s.rep.poisoned.push_back(candidate);
        s.last_candidate = -2;
        bump("fabric.poisoned");
        if (obs::events_enabled())
            obs::emit_event(
                "fault_poisoned",
                {obs::arg("slot", static_cast<std::int64_t>(s.worker.slot)),
                 obs::arg("fault_id", static_cast<std::int64_t>(candidate)),
                 obs::arg("deaths",
                          static_cast<std::int64_t>(s.rep.deaths))});
    } else {
        s.last_candidate = candidate;
    }

    if (s.rep.deaths > opt.max_deaths_per_range) {
        s.state = SlotState::Failed;
        return;
    }
    const double backoff = std::min(
        kBackoffCapS, opt.backoff_base_s * std::pow(2.0, s.rep.deaths - 1));
    s.backoff_until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff));
    s.state = SlotState::Backoff;
}

}  // namespace

FabricReport run_fabric(const std::vector<int>& fault_ids,
                        std::uint64_t manifest,
                        const std::string& store_base,
                        const WorkerCommand& command,
                        const PoisonRecord& poison_record,
                        const FabricOptions& opt) {
    require(!store_base.empty(), "fabric: campaign needs a --store path");
    const std::vector<FaultRange> ranges =
        partition_fault_ranges(fault_ids, opt.workers);

    // A worker dying between beats must not kill the supervisor with
    // SIGPIPE (writes go the other way, but a WorkerCommand may hand the
    // pipe around); ignore it for the duration of the run.
    struct sigaction ignore {}, previous {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous);

    std::vector<Slot> slots(ranges.size());
    for (std::size_t k = 0; k < ranges.size(); ++k) {
        Slot& s = slots[k];
        s.worker.slot = k;
        s.worker.range = ranges[k];
        s.worker.shard = shard_path(store_base, k);
        s.worker.heartbeat_fd = kHeartbeatFd;
        s.rep.slot = k;
        s.rep.range = ranges[k];
        s.rep.shard = s.worker.shard;
    }

    auto respawn_or_fail = [&](Slot& s) {
        if (spawn_worker(s, command)) return;
        if (s.rep.spawn_failures > opt.max_deaths_per_range) {
            s.state = SlotState::Failed;
            return;
        }
        s.backoff_until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   opt.backoff_base_s));
        s.state = SlotState::Backoff;
    };

    for (Slot& s : slots) respawn_or_fail(s);

    std::vector<pollfd> pfds;
    for (;;) {
        bool live = false;
        for (const Slot& s : slots)
            if (s.state == SlotState::Running || s.state == SlotState::Backoff)
                live = true;
        if (!live) break;

        const Clock::time_point now = Clock::now();
        for (Slot& s : slots)
            if (s.state == SlotState::Backoff && now >= s.backoff_until)
                respawn_or_fail(s);

        pfds.clear();
        std::vector<Slot*> polled;
        for (Slot& s : slots)
            if (s.state == SlotState::Running) {
                pfds.push_back({s.rfd, POLLIN, 0});
                polled.push_back(&s);
            }
        if (!pfds.empty())
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);
        else
            ::poll(nullptr, 0, 10);  // everyone is backing off
        for (std::size_t i = 0; i < polled.size(); ++i)
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                drain_beats(*polled[i]);

        for (Slot& s : slots) {
            if (s.state != SlotState::Running) continue;
            int status = 0;
            const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
            if (r == s.pid) {
                drain_beats(s);  // the pipe may still hold final beats
                close_pipe(s);
                s.pid = -1;
                if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                    s.state = SlotState::Done;
                    s.rep.completed = true;
                    if (obs::events_enabled())
                        obs::emit_event(
                            "worker_exit",
                            {obs::arg("slot", static_cast<std::int64_t>(
                                                  s.worker.slot)),
                             obs::arg("spawns", static_cast<std::int64_t>(
                                                    s.rep.spawns))});
                    continue;
                }
                std::string how;
                if (s.timed_out)
                    how = "heartbeat timeout (SIGKILL after " +
                          std::to_string(opt.worker_timeout_s) + "s silence)";
                else if (WIFSIGNALED(status))
                    how = "worker killed by signal " +
                          std::to_string(WTERMSIG(status));
                else
                    how = "worker exited with status " +
                          std::to_string(WEXITSTATUS(status));
                handle_death(s, how, manifest, poison_record, opt);
                continue;
            }
            // Still running: silent past the deadline means wedged.
            if (seconds_between(s.last_beat, Clock::now()) >
                opt.worker_timeout_s) {
                ++s.rep.timeouts;
                s.timed_out = true;
                bump("fabric.timeouts");
                if (obs::events_enabled())
                    obs::emit_event(
                        "worker_timeout",
                        {obs::arg("slot",
                                  static_cast<std::int64_t>(s.worker.slot)),
                         obs::arg("pid", static_cast<std::int64_t>(s.pid)),
                         obs::arg("timeout_s", opt.worker_timeout_s)});
                ::kill(s.pid, SIGKILL);
                // The reap on a later iteration turns this into a death.
            }
        }
    }

    ::sigaction(SIGPIPE, &previous, nullptr);

    FabricReport report;
    report.completed = true;
    for (Slot& s : slots) {
        if (!s.rep.completed) report.completed = false;
        report.spawns += static_cast<std::size_t>(s.rep.spawns);
        report.spawn_failures +=
            static_cast<std::size_t>(s.rep.spawn_failures);
        report.deaths += static_cast<std::size_t>(s.rep.deaths);
        report.timeouts += static_cast<std::size_t>(s.rep.timeouts);
        report.poisoned += s.rep.poisoned.size();
        report.slots.push_back(std::move(s.rep));
    }
    return report;
}

#else  // !POSIX

FabricReport run_fabric(const std::vector<int>&, std::uint64_t,
                        const std::string&, const WorkerCommand&,
                        const PoisonRecord&, const FabricOptions&) {
    throw Error("fabric: multi-process supervision requires POSIX");
}

#endif

} // namespace catlift::batch
