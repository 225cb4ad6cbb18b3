// catlift/batch/collapse.h
//
// Fault-collapsing pre-pass.  Distinct layout defects frequently map to the
// *same* electrical mutation: every metal1/metal2/poly bridge between the
// same two nets injects the same short element, and every contact open on
// the same device terminal injects the same terminal open.  Simulating each
// equivalence class once and fanning the verdict back out to every member
// (probabilities intact -- weighted coverage still counts each member's
// own probability) removes that execution redundancy before the scheduler
// ever sees the queue.
//
// The key is the fault's *effect signature*: what inject() would actually
// do to the circuit, not how the fault was extracted (kind, mechanism and
// layer are deliberately ignored).

#pragma once

#include "batch/scheduler.h"
#include "lift/fault.h"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace catlift::batch {

/// Canonical string describing the circuit mutation a fault injects:
///   shorts                "S:<netLo>|<netHi>"          (nets sorted)
///   single-terminal opens "T:<device>:<terminal>"      (stuck-open and
///                                                       one-terminal line
///                                                       opens collapse
///                                                       together)
///   node splits           "P:<net>:<dev>:<t>,<dev>:<t>,..."  (terminals
///                                                             sorted)
std::string effect_signature(const lift::Fault& f);

/// One equivalence class: the representative is simulated, the verdict is
/// copied to every member.  `members` holds indices into the original
/// fault vector, first-seen order, representative first.
struct CollapsedClass {
    std::size_t representative = 0;
    std::vector<std::size_t> members;
};

/// Group faults by effect signature.  Classes appear in first-seen order,
/// so the result is deterministic for a given fault list.
std::vector<CollapsedClass> collapse(const std::vector<lift::Fault>& faults);

/// Group by precomputed signatures (one per job, same order); an empty
/// signature never collapses with anything.  This is the generic core of
/// collapse() for job lists that are not lift::Faults (parametric
/// campaigns supply their own signatures).
std::vector<CollapsedClass> collapse_by_signature(
    const std::vector<std::string>& signatures);

/// Scheduler jobs for a class list: one job per class, priority = the
/// best probability among its members (most likely fault first).
/// Every campaign runner (tran, AC, DC) drives these jobs through its own
/// resume-aware class loop: skip classes whose members are all satisfied
/// by the result store, simulate the first unfinished member as the
/// representative, fan the verdict out, persist each record.
std::vector<Job> class_jobs(
    const std::vector<CollapsedClass>& classes,
    const std::function<double(std::size_t)>& probability);

} // namespace catlift::batch
