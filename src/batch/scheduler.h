// catlift/batch/scheduler.h
//
// Work-stealing scheduler for batch fault-simulation campaigns.  The
// paper's AnaFAULT re-ran the kernel once per fault, serially; its
// follow-up [21] parallelised the campaign on a workstation cluster.  This
// is the shared-memory equivalent: one fault queue, ordered by occurrence
// probability so that the coverage curve converges early (the most likely
// faults -- the ones dominating weighted coverage -- are simulated first),
// executed by a pool of workers that steal from each other when their own
// share drains.
//
// The scheduler is deliberately generic: a job is an index plus a
// priority, and the campaign layer supplies the closure that simulates
// that index.  Results are written by index, so verdicts are independent
// of execution order -- a batch campaign at 8 threads is byte-identical
// to the same campaign at 1 thread (tested).

#pragma once

#include "geom/base.h"

#include <cstddef>
#include <functional>
#include <vector>

namespace catlift::batch {

/// One schedulable unit: an index into the caller's job array plus the
/// priority used for ordering (campaigns use the fault probability).
struct Job {
    std::size_t index = 0;
    double priority = 0.0;
};

/// Execution counters of one scheduler run.
struct SchedulerStats {
    std::size_t executed = 0;  ///< jobs run (each job exactly once)
    std::size_t steals = 0;    ///< jobs taken from another worker's deque
    /// Jobs whose closure threw (each recorded, the queue kept draining).
    std::size_t failed_jobs = 0;
    /// what() of the first recorded job exception.
    std::string first_error;
};

/// Aggregate statistics of one batch campaign: what the scheduler, the
/// fault-collapsing pre-pass, the per-point observers (early abort,
/// adaptive stepping, warm starts) and the result store each contributed.
/// Carried on the transient, AC and DC campaign results; each campaign
/// fills the counters that apply to its analysis.
///
/// Counter-reset contract (tested): every kernel-work counter below
/// (`scheduled`, `early_aborts`, `steps_*`, `bypass_solves`, ...) covers
/// work done by the *current process only*.  Results taken from a result
/// store contribute nothing to them; they are reported separately as
/// provenance counts: `resumed` for records this same campaign computed
/// in a previous run, `carried_from_store` for records whose verdict was
/// carried across a layout revision by the incremental engine (the
/// record's `carried` flag).
struct BatchStats {
    unsigned threads = 1;        ///< workers requested (the scheduler caps
                                 ///< actual workers at the job count)
    std::size_t classes = 0;     ///< equivalence classes after collapsing
    std::size_t collapsed = 0;   ///< faults folded into a class representative
    std::size_t resumed = 0;     ///< prior-run results of this campaign
                                 ///< loaded from the result store
    std::size_t carried_from_store = 0; ///< store-loaded results whose
                                        ///< verdict was carried from a
                                        ///< baseline revision (incremental)
    std::size_t scheduled = 0;   ///< kernel simulations actually run
    std::size_t nominal_resumed = 0; ///< 1 when the nominal analysis was
                                     ///< loaded from the result store
                                     ///< instead of simulated, else 0
    std::size_t early_aborts = 0; ///< runs stopped early by detection
    std::size_t steps_saved = 0;  ///< tran: user-grid steps never integrated
    std::size_t steals = 0;       ///< cross-worker job steals
    // -- adaptive transient kernel (nominal run + this run's faults) --------
    std::size_t steps_integrated = 0;  ///< companion steps actually solved
    std::size_t steps_interpolated = 0; ///< grid samples filled by the LTE
                                        ///< controller without a solve
    // -- incremental kernel (stamp split / sparse / bypass) -----------------
    std::size_t bypass_solves = 0;     ///< Newton solves that reused the
                                       ///< previous factorization outright
    std::size_t sparse_refactors = 0;  ///< pattern-reused numeric
                                       ///< refactorizations (0 when dense)
    std::size_t device_stamp_skips = 0; ///< MOS evaluations skipped by the
                                        ///< per-device bypass
    // -- campaign-shared symbolic kernel ------------------------------------
    std::size_t symbolic_cache_hits = 0; ///< faulty kernel builds that
                                         ///< adopted the nominal circuit's
                                         ///< elimination order (denominator:
                                         ///< `scheduled`)
    double ordering_seconds = 0.0;  ///< sparse one-time analyses (ordering +
                                    ///< fill discovery) across all kernels
    double numeric_seconds = 0.0;   ///< sparse pattern-reused refactor time
    // -- AC campaign --------------------------------------------------------
    std::size_t freq_points_saved = 0; ///< sweep points skipped by dB abort
    // -- DC campaign / sweeps -----------------------------------------------
    std::size_t warm_start_solves = 0; ///< OPs converged from a warm start
    std::size_t nr_saved_warm = 0;     ///< NR iterations saved vs cold solves
    // -- failure containment ------------------------------------------------
    std::size_t retries = 0;       ///< degraded re-attempts (retry ladder)
    std::size_t quarantined = 0;   ///< faults that exhausted the ladder
    std::size_t job_errors = 0;    ///< exceptions contained by the scheduler
    std::size_t store_errors = 0;  ///< store appends that failed and were
                                   ///< contained (verdict kept in memory)
    // -- multi-process fabric (filled by the supervisor, not the runner) ----
    std::size_t worker_processes = 0; ///< fabric worker slots (0: in-process)
    std::size_t worker_spawns = 0;    ///< processes launched (respawns incl.)
    std::size_t worker_deaths = 0;    ///< crashes / nonzero exits / timeouts
    std::size_t worker_timeouts = 0;  ///< deaths from heartbeat silence
    std::size_t poisoned = 0;         ///< faults quarantined by the
                                      ///< supervisor's poison-fault detector
};

/// Work-stealing thread pool.  `run` sorts the jobs by descending priority
/// (stable, so equal priorities keep list order and execution stays
/// reproducible), deals them round-robin into one deque per worker, and
/// blocks until every job has executed.  Idle workers steal from the back
/// of their neighbours' deques -- own work is consumed highest-priority
/// first, stolen work lowest-priority first, which keeps contention at
/// opposite deque ends.
class Scheduler {
public:
    /// `threads` = 0 or 1 runs inline on the calling thread.
    explicit Scheduler(unsigned threads);

    unsigned threads() const { return threads_; }

    /// Execute fn(job.index) for every job.  A job that throws is
    /// recorded (SchedulerStats::failed_jobs / first_error, obs counter
    /// `scheduler.job_errors`, event `job_error`) and the rest of the
    /// queue keeps draining: the campaign runners' per-fault handling
    /// already retires a failing fault as failed or quarantined, so
    /// anything reaching the scheduler is a last-resort escape that must
    /// not kill the other faults' verdicts.
    SchedulerStats run(std::vector<Job> jobs,
                       const std::function<void(std::size_t)>& fn) const;

private:
    unsigned threads_ = 1;
};

} // namespace catlift::batch
