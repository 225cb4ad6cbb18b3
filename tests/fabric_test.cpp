// Multi-process campaign fabric tests: fault-range partitioning, store
// shard naming and merge (idempotent, torn-tolerant, strict about
// manifest identity), the worker-side heartbeat channel, and the
// supervision loop itself -- run-to-completion, respawn after a death,
// heartbeat-timeout SIGKILL, poison-fault conviction, per-range
// abandonment, and the `fabric.heartbeat` / `worker.spawn` failpoints.
// Supervisor tests drive /bin/sh one-liners as workers; the real
// campaign-runner integration is crash_resume_smoke's `fabric` mode.
// The worker-side campaign entry points are covered for the nominal
// record: shards keep it, the merge keeps exactly one, and the result
// loaded from the merged store carries it.

#include "anafault/worker.h"
#include "batch/fabric.h"
#include "batch/result_store.h"
#include "batch/shard.h"
#include "geom/base.h"
#include "robust/failpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace catlift;
using batch::FaultRange;
using batch::FaultSimResult;

namespace {

std::string temp_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("catlift_fabric_" + tag + ".store"))
        .string();
}

void remove_with_shards(const std::string& base) {
    std::error_code ec;
    std::filesystem::remove(base, ec);
    for (const std::string& s : batch::list_shards(base))
        std::filesystem::remove(s, ec);
}

FaultSimResult make_result(int id) {
    FaultSimResult r;
    r.fault_id = id;
    r.description = "#" + std::to_string(id);
    r.probability = 1e-3 * id;
    r.simulated = true;
    r.detect_time = 1e-6 * id;
    r.metric = 0.5 * id;
    return r;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Every test arms and disarms its own failpoints; the global table must
/// never leak into the next test.
class FabricFailpoints : public ::testing::Test {
protected:
    void SetUp() override { robust::disarm_all(); }
    void TearDown() override { robust::disarm_all(); }
};

} // namespace

// ---------------------------------------------------------------------------
// Fault-range partitioning

TEST(PartitionFaultRanges, NearEqualContiguousCover) {
    std::vector<int> ids(10);
    std::iota(ids.begin(), ids.end(), 1);  // 1..10
    const std::vector<FaultRange> r = batch::partition_fault_ranges(ids, 4);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0].count, 3u);  // 10 = 3 + 3 + 2 + 2
    EXPECT_EQ(r[1].count, 3u);
    EXPECT_EQ(r[2].count, 2u);
    EXPECT_EQ(r[3].count, 2u);
    EXPECT_EQ(r.front().lo, 1);
    EXPECT_EQ(r.back().hi, 10);
    for (std::size_t k = 1; k < r.size(); ++k)
        EXPECT_LT(r[k - 1].hi, r[k].lo);  // disjoint, ascending
}

TEST(PartitionFaultRanges, FewerIdsThanWorkers) {
    const std::vector<FaultRange> r =
        batch::partition_fault_ranges({7, 3, 9}, 8);
    ASSERT_EQ(r.size(), 3u);  // never more ranges than ids
    EXPECT_EQ(r[0].lo, 3);    // input order does not matter
    EXPECT_EQ(r[2].hi, 9);
    EXPECT_TRUE(batch::partition_fault_ranges({}, 4).empty());
    EXPECT_THROW(batch::partition_fault_ranges({1}, 0), Error);
}

// ---------------------------------------------------------------------------
// Shard naming and discovery

TEST(Shards, PathAndListing) {
    const std::string base = temp_path("list");
    remove_with_shards(base);
    EXPECT_EQ(batch::shard_path(base, 2), base + ".shard-2");
    EXPECT_TRUE(batch::list_shards(base).empty());

    // Create out of order, plus decoys that must not match.
    for (const char* suffix : {".shard-10", ".shard-0", ".shard-2"})
        std::ofstream(base + suffix) << "x";
    std::ofstream(base + ".shard-x") << "x";
    std::ofstream(base + ".merge-tmp") << "x";
    const std::vector<std::string> got = batch::list_shards(base);
    ASSERT_EQ(got.size(), 3u);  // numeric order, not lexicographic
    EXPECT_EQ(got[0], base + ".shard-0");
    EXPECT_EQ(got[1], base + ".shard-2");
    EXPECT_EQ(got[2], base + ".shard-10");
    remove_with_shards(base);
    std::filesystem::remove(base + ".shard-x");
    std::filesystem::remove(base + ".merge-tmp");
}

// ---------------------------------------------------------------------------
// Shard merge

TEST(MergeShards, DedupesSortsAndIsIdempotent) {
    const std::string base = temp_path("merge");
    remove_with_shards(base);
    const std::uint64_t manifest = 0xABCDu;
    {
        batch::ResultStore s0(batch::shard_path(base, 0), manifest);
        s0.append(make_result(3));
        s0.append(make_result(1));
        batch::ResultStore s1(batch::shard_path(base, 1), manifest);
        s1.append(make_result(2));
        s1.append(make_result(3));  // duplicate of shard 0's record
    }
    const auto rep =
        batch::merge_shards(base, manifest, batch::list_shards(base));
    EXPECT_EQ(rep.shards_merged, 2u);
    EXPECT_EQ(rep.records_in, 4u);
    EXPECT_EQ(rep.records_kept, 3u);
    EXPECT_EQ(rep.duplicates, 1u);
    EXPECT_TRUE(rep.changed);

    batch::ResultStore canon(base, manifest);
    ASSERT_EQ(canon.loaded().size(), 3u);
    for (int i = 0; i < 3; ++i)  // sorted by fault id
        EXPECT_EQ(canon.loaded()[i].fault_id, i + 1);

    // Re-merging the same inputs is a byte-identical no-op.
    const std::string before = read_file(base);
    const auto rep2 =
        batch::merge_shards(base, manifest, batch::list_shards(base));
    EXPECT_FALSE(rep2.changed);
    EXPECT_EQ(rep2.records_kept, 3u);
    EXPECT_EQ(read_file(base), before);
    remove_with_shards(base);
}

TEST(MergeShards, ToleratesTornShardTail) {
    const std::string base = temp_path("torn");
    remove_with_shards(base);
    const std::uint64_t manifest = 0x17u;
    const std::string shard = batch::shard_path(base, 0);
    {
        batch::ResultStore s(shard, manifest);
        s.append(make_result(1));
        s.append(make_result(2));
    }
    // Tear the tail of the second record, as a worker SIGKILLed
    // mid-append leaves it.
    std::filesystem::resize_file(shard,
                                 std::filesystem::file_size(shard) - 4);
    const auto rep = batch::merge_shards(base, manifest, {shard});
    EXPECT_EQ(rep.records_kept, 1u);
    batch::ResultStore canon(base, manifest);
    ASSERT_EQ(canon.loaded().size(), 1u);
    EXPECT_EQ(canon.loaded()[0].fault_id, 1);
    remove_with_shards(base);
}

TEST(MergeShards, RejectsForeignManifestShard) {
    const std::string base = temp_path("foreign");
    remove_with_shards(base);
    const std::string shard = batch::shard_path(base, 0);
    {
        batch::ResultStore s(shard, 0x1111u);
        s.append(make_result(1));
    }
    EXPECT_THROW(batch::merge_shards(base, 0x2222u, {shard}), Error);
    EXPECT_FALSE(std::filesystem::exists(base));  // nothing written
    remove_with_shards(base);
}

TEST(MergeShards, ExistingCanonicalRecordWins) {
    const std::string base = temp_path("firstwins");
    remove_with_shards(base);
    const std::uint64_t manifest = 0x33u;
    {
        batch::ResultStore canon(base, manifest);
        canon.append(make_result(1));  // detect_time 1e-6
        batch::ResultStore s(batch::shard_path(base, 0), manifest);
        FaultSimResult later = make_result(1);
        later.detect_time = 9e-6;  // a re-simulation must not displace it
        s.append(later);
    }
    const auto rep =
        batch::merge_shards(base, manifest, batch::list_shards(base));
    EXPECT_EQ(rep.duplicates, 1u);
    batch::ResultStore canon(base, manifest);
    ASSERT_EQ(canon.loaded().size(), 1u);
    EXPECT_EQ(canon.loaded()[0].detect_time, 1e-6);
    remove_with_shards(base);
}

namespace {

batch::NominalRecord make_nominal(double v) {
    batch::NominalRecord n;
    n.analysis = "tran";
    n.vectors.emplace_back("time", std::vector<double>{0.0, 1e-9});
    n.vectors.emplace_back("out", std::vector<double>{v, -0.0});
    return n;
}

} // namespace

TEST(MergeShards, KeepsExactlyOneNominalRecord) {
    const std::string base = temp_path("nominal");
    remove_with_shards(base);
    const std::uint64_t manifest = 0x44u;
    {
        batch::ResultStore s0(batch::shard_path(base, 0), manifest);
        s0.append(make_result(1));  // no nominal: died before writing it
        batch::ResultStore s1(batch::shard_path(base, 1), manifest);
        s1.append_nominal(make_nominal(1.0));
        s1.append(make_result(2));
        batch::ResultStore s2(batch::shard_path(base, 2), manifest);
        s2.append_nominal(make_nominal(2.0));
        s2.append(make_result(3));
    }
    batch::merge_shards(base, manifest, batch::list_shards(base));

    // The first shard (in shard order) that has one supplies the nominal;
    // the image is header + that one record + the sorted fault records.
    std::string image = batch::store_header(manifest) +
                        batch::encode_record(make_nominal(1.0));
    for (int id = 1; id <= 3; ++id)
        image += batch::encode_record(make_result(id));
    EXPECT_EQ(read_file(base), image);

    // Re-merging is a byte-identical no-op.
    const auto rep =
        batch::merge_shards(base, manifest, batch::list_shards(base));
    EXPECT_FALSE(rep.changed);
    EXPECT_EQ(read_file(base), image);

    // A canonical store's own nominal outranks every shard's.
    remove_with_shards(base);
    {
        batch::ResultStore canon(base, manifest);
        canon.append_nominal(make_nominal(3.0));
        batch::ResultStore s0(batch::shard_path(base, 0), manifest);
        s0.append_nominal(make_nominal(1.0));
    }
    batch::merge_shards(base, manifest, batch::list_shards(base));
    const auto snap = batch::load_store(base);
    ASSERT_TRUE(snap && snap->nominal);
    EXPECT_EQ(batch::encode_record(*snap->nominal),
              batch::encode_record(make_nominal(3.0)));
    remove_with_shards(base);
}

namespace {

netlist::Circuit divider() {
    netlist::Circuit c;
    c.title = "divider";
    c.add_vsource("V1", "in", "0",
                  netlist::SourceSpec::make_pulse(0, 5, 0, 1e-9, 1e-9, 1e-6,
                                                  2e-6));
    c.add_resistor("R1", "in", "out", 1e3);
    c.add_resistor("R2", "out", "0", 1e3);
    c.add_capacitor("C1", "out", "0", 1e-10);
    c.tran = netlist::TranSpec{1e-8, 4e-6, 0.0};
    return c;
}

lift::FaultList divider_shorts() {
    lift::FaultList fl;
    fl.circuit = "divider";
    const char* nets[][2] = {{"out", "0"}, {"in", "out"}, {"in", "0"}};
    for (int i = 0; i < 3; ++i) {
        lift::Fault f;
        f.id = i + 1;
        f.kind = lift::FaultKind::LocalShort;
        f.mechanism = "m1_short";
        f.probability = 1e-3 * (4 - i);
        f.net_a = nets[i][0];
        f.net_b = nets[i][1];
        fl.faults.push_back(f);
    }
    return fl;
}

std::uint64_t newton_hits() {
    for (const robust::FailpointStatus& s : robust::status())
        if (s.name == "kernel.newton") return s.hits;
    return 0;
}

bool same_waveforms(const spice::Waveforms& a, const spice::Waveforms& b) {
    const auto bits = [](const std::vector<double>& v) {
        return std::string(reinterpret_cast<const char*>(v.data()),
                           v.size() * sizeof(double));
    };
    if (a.trace_names() != b.trace_names() ||
        bits(a.time()) != bits(b.time()))
        return false;
    for (const std::string& n : a.trace_names())
        if (bits(a.trace(n)) != bits(b.trace(n))) return false;
    return true;
}

} // namespace

TEST_F(FabricFailpoints, WorkersPersistTheNominalAndTheMergeCarriesIt) {
    const netlist::Circuit c = divider();
    const lift::FaultList fl = divider_shorts();
    anafault::CampaignOptions opt;
    opt.detection.observed = {"out"};
    const anafault::CampaignResult ref = anafault::run_campaign(c, fl, opt);

    const std::string base = temp_path("worker_nominal");
    remove_with_shards(base);
    opt.result_store = base;
    anafault::WorkerOptions w0{1, 2, batch::shard_path(base, 0)};
    anafault::WorkerOptions w1{3, 3, batch::shard_path(base, 1)};
    anafault::run_worker_campaign(c, fl, opt, w0);
    anafault::run_worker_campaign(c, fl, opt, w1);

    // A respawned worker -- its predecessor killed mid-append -- resumes
    // its shard's nominal: only the torn fault reaches the kernel.
    std::filesystem::resize_file(
        w0.shard, std::filesystem::file_size(w0.shard) - 4);
    anafault::CampaignOptions alone = opt;
    alone.result_store.clear();
    const auto hits_of = [](auto run) {
        robust::arm("kernel.newton=error@1000000000");
        run();
        const std::uint64_t h = newton_hits();
        robust::disarm_all();
        return h;
    };
    const std::uint64_t torn_hits =
        hits_of([&] {
            anafault::run_campaign(c, {fl.circuit, {fl.faults[1]}}, alone);
        }) -
        hits_of([&] { anafault::run_campaign(c, {fl.circuit, {}}, alone); });
    anafault::CampaignResult respawn;
    EXPECT_EQ(hits_of([&] {
                  respawn = anafault::run_worker_campaign(c, fl, opt, w0);
              }),
              torn_hits);
    EXPECT_EQ(respawn.batch.nominal_resumed, 1u);
    EXPECT_EQ(respawn.batch.scheduled, 1u);

    // The merged store holds one nominal, and the result assembled from
    // it carries the in-process run's nominal bit for bit.
    const std::uint64_t manifest = anafault::campaign_manifest(c, fl, opt);
    batch::merge_shards(base, manifest, batch::list_shards(base));
    const anafault::CampaignResult merged =
        anafault::load_campaign_result(c, fl, opt, base);
    EXPECT_EQ(merged.batch.nominal_resumed, 1u);
    EXPECT_TRUE(same_waveforms(merged.nominal, ref.nominal));
    ASSERT_EQ(merged.results.size(), ref.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i)
        EXPECT_EQ(merged.results[i].detect_time, ref.results[i].detect_time);
    remove_with_shards(base);
}

// ---------------------------------------------------------------------------
// Heartbeat channel and supervision loop (POSIX)

#if defined(__unix__) || defined(__APPLE__)

TEST(Heartbeat, EmitterWritesAtomic8ByteFrames) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(fds), 0);
    {
        batch::HeartbeatEmitter hb(fds[1]);
        hb.fault_started(7);
        hb.fault_retired(7);
    }
    ::close(fds[1]);
    std::int32_t frames[64][2];
    const ssize_t n = ::read(fds[0], frames, sizeof frames);
    ::close(fds[0]);
    // The constructor's initial Alive beat, then the two explicit calls;
    // the ticker may interleave further Alive beats if the host stalls
    // the test past one tick.
    ASSERT_GE(n, 24);
    ASSERT_EQ(n % 8, 0);  // whole 8-byte frames, no partials
    EXPECT_EQ(frames[0][0], 0);   // Alive
    EXPECT_EQ(frames[0][1], -1);
    std::vector<std::pair<std::int32_t, std::int32_t>> faults;
    for (ssize_t i = 1; i < n / 8; ++i) {
        if (frames[i][0] == 0) {
            EXPECT_EQ(frames[i][1], -1);
            continue;
        }
        faults.emplace_back(frames[i][0], frames[i][1]);
    }
    const std::vector<std::pair<std::int32_t, std::int32_t>> want = {
        {1, 7}, {2, 7}};  // FaultStarted, FaultRetired
    EXPECT_EQ(faults, want);
}

namespace {

std::vector<int> some_ids() { return {1, 2, 3, 4, 5, 6}; }

batch::PoisonRecord plain_poison() {
    return [](int fault_id, int deaths, const std::string& retry_log) {
        FaultSimResult r;
        r.fault_id = fault_id;
        r.simulated = false;
        r.quarantined = true;
        r.attempts = static_cast<std::uint32_t>(deaths);
        r.error = "poison";
        r.retry_log = retry_log;
        return r;
    };
}

/// A WorkerCommand running `scripts[min(spawn_index, last)]` under
/// /bin/sh, for every slot.  Shell workers inherit fd 3 = the heartbeat
/// pipe, so `printf '...' >&3` writes beats.
batch::WorkerCommand sh_workers(std::vector<std::string> scripts) {
    return [scripts = std::move(scripts)](const batch::WorkerSlot& s) {
        const std::size_t i = std::min<std::size_t>(
            static_cast<std::size_t>(s.spawn_index), scripts.size() - 1);
        return std::vector<std::string>{"/bin/sh", "-c", scripts[i]};
    };
}

batch::FabricOptions fast_options(unsigned workers) {
    batch::FabricOptions fo;
    fo.workers = workers;
    fo.worker_timeout_s = 30.0;
    fo.backoff_base_s = 0.01;
    return fo;
}

// FaultStarted beat for fault 5, as shell bytes: int32 kind=1, id=5 LE.
const char* kStartFault5 = "printf '\\001\\000\\000\\000\\005\\000\\000\\000' >&3";

} // namespace

TEST(Fabric, RunsCleanWorkersToCompletion) {
    const std::string base = temp_path("clean");
    remove_with_shards(base);
    const auto rep = batch::run_fabric(some_ids(), 1u, base,
                                       sh_workers({"exit 0"}),
                                       plain_poison(), fast_options(2));
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.slots.size(), 2u);
    EXPECT_EQ(rep.spawns, 2u);
    EXPECT_EQ(rep.deaths, 0u);
    EXPECT_EQ(rep.poisoned, 0u);
    remove_with_shards(base);
}

TEST(Fabric, RespawnsAfterWorkerDeath) {
    const std::string base = temp_path("respawn");
    remove_with_shards(base);
    const auto rep = batch::run_fabric(some_ids(), 1u, base,
                                       sh_workers({"exit 1", "exit 0"}),
                                       plain_poison(), fast_options(2));
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.deaths, 2u);   // each slot's first spawn exits 1
    EXPECT_EQ(rep.spawns, 4u);   // ... and is respawned once
    EXPECT_EQ(rep.poisoned, 0u);
    remove_with_shards(base);
}

TEST(Fabric, SigkillsSilentWorkerOnHeartbeatTimeout) {
    const std::string base = temp_path("timeout");
    remove_with_shards(base);
    batch::FabricOptions fo = fast_options(1);
    fo.worker_timeout_s = 0.3;
    const auto rep = batch::run_fabric(some_ids(), 1u, base,
                                       sh_workers({"sleep 5", "exit 0"}),
                                       plain_poison(), fo);
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.timeouts, 1u);
    EXPECT_EQ(rep.deaths, 1u);
    EXPECT_EQ(rep.spawns, 2u);
    remove_with_shards(base);
}

TEST(Fabric, ConvictsFaultInFlightAtTwoConsecutiveDeaths) {
    const std::string base = temp_path("poison");
    remove_with_shards(base);
    const std::uint64_t manifest = 0x77u;
    const std::string die_on_5 = std::string(kStartFault5) + "; exit 1";
    const auto rep = batch::run_fabric(
        some_ids(), manifest, base,
        sh_workers({die_on_5, die_on_5, "exit 0"}), plain_poison(),
        fast_options(1));
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.deaths, 2u);
    ASSERT_EQ(rep.poisoned, 1u);
    ASSERT_EQ(rep.slots[0].poisoned.size(), 1u);
    EXPECT_EQ(rep.slots[0].poisoned[0], 5);

    // The conviction is durable: a `quarantined` record for fault 5 in the
    // slot's shard, under the campaign manifest, retry_log naming the
    // fault -- so the respawned worker's resume pass skips it.
    batch::ResultStore shard(batch::shard_path(base, 0), manifest);
    ASSERT_EQ(shard.loaded().size(), 1u);
    const FaultSimResult& q = shard.loaded()[0];
    EXPECT_EQ(q.fault_id, 5);
    EXPECT_TRUE(q.quarantined);
    EXPECT_FALSE(q.simulated);
    EXPECT_EQ(q.attempts, 2u);
    EXPECT_NE(q.retry_log.find("fault 5"), std::string::npos);
    remove_with_shards(base);
}

TEST(Fabric, DifferentCandidatesNeverConvict) {
    const std::string base = temp_path("nopoison");
    remove_with_shards(base);
    // First death with fault 5 in flight, second with fault 2: no fault
    // is in flight at two *consecutive* deaths, so nothing is quarantined.
    const char* start2 = "printf '\\001\\000\\000\\000\\002\\000\\000\\000' >&3";
    const auto rep = batch::run_fabric(
        some_ids(), 1u, base,
        sh_workers({std::string(kStartFault5) + "; exit 1",
                    std::string(start2) + "; exit 1", "exit 0"}),
        plain_poison(), fast_options(1));
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.deaths, 2u);
    EXPECT_EQ(rep.poisoned, 0u);
    EXPECT_FALSE(std::filesystem::exists(batch::shard_path(base, 0)));
    remove_with_shards(base);
}

TEST(Fabric, AbandonsRangeAfterMaxDeaths) {
    const std::string base = temp_path("abandon");
    remove_with_shards(base);
    batch::FabricOptions fo = fast_options(1);
    fo.max_deaths_per_range = 2;
    const auto rep = batch::run_fabric(some_ids(), 1u, base,
                                       sh_workers({"exit 1"}),
                                       plain_poison(), fo);
    EXPECT_FALSE(rep.completed);
    EXPECT_FALSE(rep.slots[0].completed);
    EXPECT_EQ(rep.deaths, 3u);  // the death *exceeding* max abandons
    remove_with_shards(base);
}

TEST_F(FabricFailpoints, TornHeartbeatsDriveTheTimeoutPath) {
    const std::string base = temp_path("fptorn");
    remove_with_shards(base);
    // The worker beats diligently, but every beat is lost in transit:
    // from the supervisor's seat that is indistinguishable from a wedged
    // worker, and the timeout SIGKILL must fire.
    robust::arm("fabric.heartbeat=torn");
    batch::FabricOptions fo = fast_options(1);
    fo.worker_timeout_s = 0.3;
    const std::string beat_loop =
        "while :; do printf '\\000\\000\\000\\000\\377\\377\\377\\377' >&3; "
        "sleep 0.05; done";
    const auto rep = batch::run_fabric(some_ids(), 1u, base,
                                       sh_workers({beat_loop, "exit 0"}),
                                       plain_poison(), fo);
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.timeouts, 1u);
    EXPECT_EQ(rep.deaths, 1u);
    remove_with_shards(base);
}

TEST_F(FabricFailpoints, SpawnFailureBacksOffAndRetries) {
    const std::string base = temp_path("fpspawn");
    remove_with_shards(base);
    robust::arm("worker.spawn=error@1+1");  // only the first launch fails
    const auto rep = batch::run_fabric(some_ids(), 1u, base,
                                       sh_workers({"exit 0"}),
                                       plain_poison(), fast_options(1));
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.spawn_failures, 1u);
    EXPECT_EQ(rep.spawns, 1u);
    EXPECT_EQ(rep.deaths, 0u);
    remove_with_shards(base);
}

#endif  // POSIX
