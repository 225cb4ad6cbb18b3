#include "anafault/worker.h"

#include "anafault/driver.h"
#include "geom/base.h"

#include <memory>

namespace catlift::anafault {

CampaignResult run_worker_campaign(const netlist::Circuit& ckt,
                                   const lift::FaultList& full,
                                   const CampaignOptions& opt,
                                   const WorkerOptions& w) {
    require(!w.shard.empty(), "worker campaign: needs a shard store path");
    require(w.id_lo <= w.id_hi, "worker campaign: empty fault-id range");

    lift::FaultList sub;
    sub.circuit = full.circuit;
    for (const lift::Fault& f : full.faults)
        if (f.id >= w.id_lo && f.id <= w.id_hi) sub.faults.push_back(f);
    require(!sub.faults.empty(),
            "worker campaign: no faults in the assigned id range");

    CampaignOptions wopt = opt;
    wopt.result_store = w.shard;
    wopt.resume = true;  // a respawn must skip its predecessor's records

    std::unique_ptr<batch::HeartbeatEmitter> hb;
    if (w.heartbeat_fd >= 0) {
        hb = std::make_unique<batch::HeartbeatEmitter>(w.heartbeat_fd);
        obs::attach_event_sink(std::make_shared<batch::HeartbeatSink>(*hb));
    }
    // The shard identifies as the *full* campaign: manifest over the whole
    // fault list, so the shards merge into the full campaign's store.
    detail::TranPolicy p{ckt, wopt};
    CampaignResult res = detail::drive(
        p, sub, [&] { return campaign_manifest(ckt, full, opt); });
    if (hb) {
        // The sink holds a reference into `hb`; it must never outlive it.
        // Worker processes attach no other sinks, so a full detach is the
        // whole story.
        obs::detach_event_sinks();
        hb.reset();
    }
    return res;
}

CampaignResult load_campaign_result(const netlist::Circuit& ckt,
                                    const lift::FaultList& faults,
                                    const CampaignOptions& opt,
                                    const std::string& store_path) {
    const std::uint64_t manifest = campaign_manifest(ckt, faults, opt);
    auto snap = batch::load_store(store_path);
    require(snap.has_value(),
            "fabric: merged store unreadable or not a store: " + store_path);
    require(snap->manifest == manifest,
            "fabric: merged store " + store_path +
                " identifies as a different campaign");

    CampaignResult res;
    detail::TranPolicy p{ckt, opt};
    res.tstop = p.ts.tstop;
    detail::load_nominal(p, snap->nominal, res);
    const std::vector<detail::JobMeta> metas = detail::fault_metas(faults);
    std::vector<char> done;
    detail::load_slots<detail::TranPolicy>(snap->records, metas, res, done);
    for (std::size_t i = 0; i < metas.size(); ++i) {
        FaultSimResult& r = res.results[i];
        if (done[i]) {
            res.total_seconds += r.sim_seconds;
            continue;
        }
        r.fault_id = metas[i].fault_id;
        r.description = metas[i].description;
        r.probability = metas[i].probability;
        r.error = "missing from merged store (worker range abandoned?)";
    }
    res.batch.threads = 1;
    return res;
}

batch::FaultSimResult quarantine_record(const lift::FaultList& faults,
                                        int fault_id, int attempts,
                                        const std::string& retry_log) {
    batch::FaultSimResult r;
    r.fault_id = fault_id;
    for (const lift::Fault& f : faults.faults)
        if (f.id == fault_id) {
            r.description = f.describe();
            r.probability = f.probability;
            break;
        }
    r.simulated = false;
    r.quarantined = true;
    r.attempts = static_cast<std::uint32_t>(attempts > 0 ? attempts : 1);
    r.error = "poison fault: killed its worker process at two consecutive "
              "deaths";
    r.retry_log = retry_log;
    return r;
}

} // namespace catlift::anafault
