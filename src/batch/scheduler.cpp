#include "batch/scheduler.h"

#include "core/thread_annotations.h"
#include "obs/obs.h"
#include "robust/failpoint.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <thread>

namespace catlift::batch {

Scheduler::Scheduler(unsigned threads) : threads_(std::max(1u, threads)) {}

namespace {

/// One worker's deque with its lock.  Owner pops the front, thieves pop the
/// back.
struct WorkDeque {
    Mutex mu;
    std::deque<std::size_t> jobs CATLIFT_GUARDED_BY(mu);
};

std::string what_of(const std::exception_ptr& ep) {
    try {
        std::rethrow_exception(ep);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/// Publish one contained job failure.
void record_job_error(const std::exception_ptr& ep, std::size_t idx) {
    if (obs::metrics_enabled())
        obs::Registry::global().counter("scheduler.job_errors").add(1);
    if (obs::events_enabled())
        obs::emit_event("job_error",
                        {obs::arg("job", static_cast<std::int64_t>(idx)),
                         obs::arg("error", what_of(ep))});
}

}  // namespace

SchedulerStats Scheduler::run(std::vector<Job> jobs,
                              const std::function<void(std::size_t)>& fn) const {
    SchedulerStats stats;
    if (jobs.empty()) return stats;

    // Highest probability first; stable so ties keep fault-list order and
    // the deal below is reproducible run to run.
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const Job& a, const Job& b) {
                         return a.priority > b.priority;
                     });

    if (threads_ == 1 || jobs.size() == 1) {
        // Same error contract as the threaded path.  Inline jobs run on
        // the caller's trace lane.
        if (obs::enabled_mask()) obs::set_lane_name("main");
        for (const Job& j : jobs) {
            try {
                robust::hit("sched.job");  // injected-exception / crash site
                fn(j.index);
            } catch (...) {
                const std::exception_ptr ep = std::current_exception();
                if (stats.failed_jobs == 0) stats.first_error = what_of(ep);
                ++stats.failed_jobs;
                record_job_error(ep, j.index);
            }
            ++stats.executed;
        }
        if (obs::metrics_enabled())
            obs::Registry::global()
                .counter("scheduler.jobs")
                .add(stats.executed);
        return stats;
    }

    const unsigned w = std::min<unsigned>(
        threads_, static_cast<unsigned>(jobs.size()));
    std::vector<WorkDeque> deques(w);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        deques[i % w].jobs.push_back(jobs[i].index);

    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> steals{0};
    std::atomic<std::size_t> failed{0};
    // First-exception slot: workers race to publish under the slot's
    // mutex; the post-join reads below reacquire it so the analysis (and
    // TSan) see one consistent discipline rather than a join-ordered
    // exception.  (A struct because guarded_by binds to data members.)
    struct ErrorSlot {
        Mutex mu;
        std::exception_ptr first CATLIFT_GUARDED_BY(mu);
    } err;

    auto worker = [&](unsigned self) {
        // Name this worker's trace lane so fault spans land on a
        // readable "worker-N" track in the exported trace.
        if (obs::enabled_mask())
            obs::set_lane_name("worker-" + std::to_string(self));
        for (;;) {
            std::size_t idx = 0;
            bool have = false, stolen = false;
            {
                MutexLock lk(deques[self].mu);
                if (!deques[self].jobs.empty()) {
                    idx = deques[self].jobs.front();
                    deques[self].jobs.pop_front();
                    have = true;
                }
            }
            if (!have) {
                // Steal: scan the other deques starting after self, taking
                // from the back (the victim's lowest-priority pending job).
                for (unsigned k = 1; k < w && !have; ++k) {
                    WorkDeque& victim = deques[(self + k) % w];
                    MutexLock lk(victim.mu);
                    if (!victim.jobs.empty()) {
                        idx = victim.jobs.back();
                        victim.jobs.pop_back();
                        have = stolen = true;
                    }
                }
            }
            if (!have) return;  // every deque empty: done
            if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
            try {
                robust::hit("sched.job");  // injected-exception / crash site
                fn(idx);
            } catch (...) {
                const std::exception_ptr ep = std::current_exception();
                failed.fetch_add(1, std::memory_order_relaxed);
                {
                    MutexLock lk(err.mu);
                    if (!err.first) err.first = ep;
                }
                record_job_error(ep, idx);
            }
            executed.fetch_add(1, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(w);
    for (unsigned t = 0; t < w; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();

    {
        // Workers are joined, but holding err.mu keeps the annotated
        // contract (and the analysis) exact instead of relying on the
        // happens-before edge of the joins.
        MutexLock lk(err.mu);
        if (err.first) stats.first_error = what_of(err.first);
    }
    stats.executed = executed.load();
    stats.steals = steals.load();
    stats.failed_jobs = failed.load();
    if (obs::metrics_enabled()) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("scheduler.jobs").add(stats.executed);
        reg.counter("scheduler.steals").add(stats.steals);
    }
    return stats;
}

} // namespace catlift::batch
