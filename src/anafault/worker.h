// catlift/anafault/worker.h
//
// Campaign-layer entry points of the multi-process fabric
// (batch/fabric.h).  A worker process is the ordinary campaign driver
// (anafault/driver.h) pointed at a fault-id *subrange* and a store
// *shard*, the shard bound -- through the driver's manifest argument --
// to the full campaign's manifest.  The supervisor then folds the shards
// back together (batch::merge_shards) and reassembles the final
// CampaignResult straight from the canonical store -- the nominal
// included -- so the parent never re-runs the nominal simulation.

#pragma once

#include "anafault/campaign.h"
#include "batch/fabric.h"

#include <string>

namespace catlift::anafault {

/// What makes a worker-process campaign different from a plain one.
struct WorkerOptions {
    int id_lo = 0;   ///< inclusive fault-id range this worker owns
    int id_hi = 0;
    std::string shard;              ///< this worker's store shard
    int heartbeat_fd = -1;          ///< supervision pipe fd (<0: none)
};

/// Run the campaign for the faults of `full` with ids in [id_lo, id_hi],
/// appending into `w.shard` under the *full* campaign's manifest, with
/// resume on (a respawned worker skips everything its predecessor -- or
/// the supervisor's quarantine pass -- already retired).  When
/// `w.heartbeat_fd` is set, a batch::HeartbeatSink reports every fault
/// start/retirement to the supervisor for the poison-fault detector.
CampaignResult run_worker_campaign(const netlist::Circuit& ckt,
                                   const lift::FaultList& full,
                                   const CampaignOptions& opt,
                                   const WorkerOptions& w);

/// Assemble a CampaignResult for (ckt, faults, opt) from the canonical
/// merged store at `store_path` without simulating anything: every fault
/// must already have a record (a fault missing from the store comes back
/// `failed` with a diagnostic error).  The nominal comes from the
/// store's nominal record (batch.nominal_resumed = 1); it stays empty
/// when the store holds none.  Throws catlift::Error when the store is
/// unreadable or bound to a different manifest.
CampaignResult load_campaign_result(const netlist::Circuit& ckt,
                                    const lift::FaultList& faults,
                                    const CampaignOptions& opt,
                                    const std::string& store_path);

/// The `quarantined` verdict the supervisor appends for a convicted
/// poison fault: identity (description, probability) from the fault
/// list, PR 8's containment fields (attempts = worker deaths, the
/// accumulated death log as retry_log) for everything else.
batch::FaultSimResult quarantine_record(const lift::FaultList& faults,
                                        int fault_id, int attempts,
                                        const std::string& retry_log);

} // namespace catlift::anafault
