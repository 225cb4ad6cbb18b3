// catlift/batch/fabric.h
//
// Crash-isolated multi-process campaign fabric (the process-level
// counterpart of batch/scheduler.h's thread pool).  The probability-
// ordered fault queue is sharded by fault-id range across N worker
// *processes*; each worker runs the ordinary campaign runner into its own
// append-only store shard (batch/shard.h), and a supervisor loop keeps
// the campaign alive through anything a fault can do to a worker:
//
//   spawn ----> running --(exit 0)----------------------> done
//                 |  ^
//    (crash, --->|  |  backoff (exponential, capped)
//     nonzero    v  |
//     exit,     death --(deaths > max_deaths_per_range)-> failed
//     heartbeat   |
//     timeout)    +--(same in-flight fault at two consecutive
//                     deaths)--> quarantine record appended to the
//                     shard; the restarted worker resumes past it
//
// Workers report liveness and progress over a pipe: fixed 8-byte beats
// (kind, fault id), written atomically (<= PIPE_BUF).  A worker that goes
// silent for `worker_timeout_s` is SIGKILLed and treated as a death.
// Because every fault's start and retirement is beat-reported, the
// "bisection" of a poison fault degenerates to exact identification: the
// in-flight fault at the moment of death is the only candidate, and two
// consecutive deaths pointing at the same fault convict it.  The
// supervisor then appends a `quarantined` verdict (PR 8's containment
// vocabulary: attempts + retry_log) to the dead worker's shard under the
// campaign manifest, so the restarted worker's resume pass skips it and
// the campaign converges even with a deterministically-crashing fault.
//
// The fabric is deliberately ignorant of circuits and faults -- it moves
// fault *ids* and argv vectors, so tests can supervise /bin/sh scripts
// and anafaultc can self-exec real workers through the same loop.

#pragma once

#include "batch/result_store.h"
#include "obs/events.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace catlift::batch {

/// Contiguous fault-id range owned by one worker slot.
struct FaultRange {
    int lo = 0;              ///< first fault id (inclusive)
    int hi = 0;              ///< last fault id (inclusive)
    std::size_t count = 0;   ///< fault ids from the queue in [lo, hi]
};

/// Split the sorted fault ids into at most `workers` contiguous ranges of
/// near-equal count (the queue is probability-ordered by construction --
/// lift::FaultList::rank() renumbers ids in rank order -- so equal count
/// is equal expected work).  Fewer ranges come back when there are fewer
/// ids than workers.
std::vector<FaultRange> partition_fault_ranges(const std::vector<int>& ids,
                                               unsigned workers);

struct FabricOptions {
    unsigned workers = 2;
    /// A worker silent for this long is presumed wedged and SIGKILLed.
    double worker_timeout_s = 30.0;
    /// Respawn backoff: base * 2^(deaths-1), capped at 5 s.
    double backoff_base_s = 0.1;
    /// A range whose worker dies more than this many times is abandoned
    /// (FabricReport::completed turns false).
    int max_deaths_per_range = 8;
    /// Durability of the quarantine records the supervisor appends.
    Durability durability = Durability::Flush;
};

/// Everything a WorkerCommand needs to build one worker's argv.
struct WorkerSlot {
    std::size_t slot = 0;
    FaultRange range;
    std::string shard;       ///< shard_path(store_base, slot)
    int heartbeat_fd = 0;    ///< child-side fd the worker must beat on
    int spawn_index = 0;     ///< 0 on the first spawn, +1 per respawn
};

/// argv (argv[0] = executable) for one spawn of one slot.
using WorkerCommand =
    std::function<std::vector<std::string>(const WorkerSlot&)>;

/// Builds the `quarantined` verdict record for a convicted poison fault
/// (the fabric knows ids, not descriptions/probabilities -- the campaign
/// layer fills those in).
using PoisonRecord = std::function<FaultSimResult(
    int fault_id, int deaths, const std::string& retry_log)>;

struct SlotReport {
    std::size_t slot = 0;
    FaultRange range;
    std::string shard;
    int spawns = 0;           ///< successful process launches
    int spawn_failures = 0;   ///< launch attempts that failed outright
    int deaths = 0;           ///< crashes, nonzero exits, timeouts
    int timeouts = 0;         ///< deaths caused by heartbeat silence
    bool completed = false;   ///< a worker exited 0 for this range
    std::vector<int> poisoned;  ///< fault ids quarantined on this slot
};

struct FabricReport {
    bool completed = false;   ///< every slot completed its range
    std::size_t spawns = 0;
    std::size_t spawn_failures = 0;
    std::size_t deaths = 0;
    std::size_t timeouts = 0;
    std::size_t poisoned = 0;
    std::vector<SlotReport> slots;
};

/// Run the supervision loop to completion (or to per-range abandonment).
/// Failpoint sites: `worker.spawn` (generic actions fail the launch) and
/// `fabric.heartbeat` (`torn` drops incoming beats, driving the timeout
/// path).  POSIX only; throws catlift::Error elsewhere.
FabricReport run_fabric(const std::vector<int>& fault_ids,
                        std::uint64_t manifest,
                        const std::string& store_base,
                        const WorkerCommand& command,
                        const PoisonRecord& poison_record,
                        const FabricOptions& opt = {});

// ---------------------------------------------------------------------------
// Worker side of the heartbeat channel.

/// The fd the supervisor dup2s the pipe's write end onto in every child.
inline constexpr int kHeartbeatFd = 3;

enum class BeatKind : std::int32_t {
    Alive = 0,         ///< periodic liveness tick (fault id -1)
    FaultStarted = 1,  ///< fault id entered simulation
    FaultRetired = 2,  ///< fault id got a verdict (simulated or resumed)
};

/// Worker-side beat writer: a background thread ticks Alive every
/// 50 ms, and the campaign reports fault starts/retirements
/// inline.  Writes are single 8-byte frames (atomic under PIPE_BUF);
/// a vanished supervisor (EPIPE) is ignored -- the worker finishes its
/// shard regardless.  fault_started() is also the `worker.fault`
/// failpoint site: arming `worker.fault=poison:ID` kills the process
/// (exit 137) the moment fault ID starts, the deterministic poison
/// fault of the containment tests.
class HeartbeatEmitter {
public:
    explicit HeartbeatEmitter(int fd);
    ~HeartbeatEmitter();

    void fault_started(int fault_id);
    void fault_retired(int fault_id);

private:
    void beat(BeatKind kind, std::int32_t fault_id);

    int fd_;
    std::atomic<bool> stop_{false};
    std::thread ticker_;
};

/// Event sink bridging the campaign runner's `fault_started` /
/// `fault_retired` / `fault_resumed` / `fault_quarantined` events onto a
/// HeartbeatEmitter, so the runner needs no fabric awareness at all.
class HeartbeatSink : public obs::EventSink {
public:
    explicit HeartbeatSink(HeartbeatEmitter& hb) : hb_(hb) {}
    void on_event(const char* name, std::uint64_t ts_ns,
                  const std::vector<obs::TraceArg>& fields) override;

private:
    HeartbeatEmitter& hb_;
};

} // namespace catlift::batch
