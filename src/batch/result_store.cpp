#include "batch/result_store.h"

#include "obs/obs.h"
#include "robust/failpoint.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace catlift::batch {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
    return fnv1a(s.data(), s.size(), h);
}

namespace {

constexpr std::uint32_t kMagic = 0x42544143u;  // "CATB"
// v2: steps_integrated + steps_interpolated appended to each record (the
// adaptive transient kernel's counters).
// v3: bypass_solves + sparse_refactors appended (the incremental-kernel
// counters).
// v4: carried appended (cross-revision carry-over provenance).
// v5: device_stamp_skips + symbolic_cache_hits + ordering_seconds (the
// campaign-shared symbolic kernel's counters) and metric (the AC/DC
// campaigns' detection metric, now that those runners persist too).
// v6: attempts + quarantined + retry_log (the failure-containment
// layer's retry/degradation ladder provenance; `quarantined` is a
// verdict and must survive store round-trips and incremental carry).
// v7: a record-kind tag leads every payload, and one optional nominal
// record (the campaign's fault-free analysis) joins the fault records.
// Any older-version store is treated as foreign and restarted, like any
// other manifest mismatch.
constexpr std::uint32_t kVersion = 7;

/// First payload byte: which record the rest of the payload encodes.
enum RecordKind : std::uint8_t { kFaultRecord = 1, kNominalRecord = 2 };

template <typename T>
void put(std::string& buf, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = reinterpret_cast<const char*>(&v);
    buf.append(p, sizeof v);
}

void put_str(std::string& buf, const std::string& s) {
    put(buf, static_cast<std::uint32_t>(s.size()));
    buf.append(s);
}

/// Cursor over a loaded byte buffer; every get reports success so the
/// loader can stop cleanly at a truncated tail.
struct Reader {
    const std::string& buf;
    std::size_t pos = 0;

    template <typename T>
    bool get(T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        if (buf.size() - pos < sizeof v) return false;
        std::memcpy(&v, buf.data() + pos, sizeof v);
        pos += sizeof v;
        return true;
    }
    bool get_str(std::string& s) {
        std::uint32_t n = 0;
        if (!get(n)) return false;
        if (buf.size() - pos < n) return false;
        s.assign(buf.data() + pos, n);
        pos += n;
        return true;
    }
};

/// Length + payload + checksum: one record as the log stores it.
std::string frame(const std::string& payload) {
    std::string rec;
    put(rec, static_cast<std::uint32_t>(payload.size()));
    rec.append(payload);
    put(rec, fnv1a(payload));
    return rec;
}

std::string encode(const FaultSimResult& r) {
    std::string p;
    put(p, kFaultRecord);
    put(p, static_cast<std::int32_t>(r.fault_id));
    put(p, static_cast<std::uint8_t>(r.simulated ? 1 : 0));
    put(p, static_cast<std::uint8_t>(r.detect_time ? 1 : 0));
    put(p, r.detect_time.value_or(0.0));
    put(p, r.probability);
    put(p, r.sim_seconds);
    put(p, static_cast<std::uint64_t>(r.nr_iterations));
    put(p, static_cast<std::uint64_t>(r.matrix_size));
    put(p, static_cast<std::uint64_t>(r.steps_saved));
    put(p, static_cast<std::uint64_t>(r.steps_integrated));
    put(p, static_cast<std::uint64_t>(r.steps_interpolated));
    put(p, static_cast<std::uint64_t>(r.bypass_solves));
    put(p, static_cast<std::uint64_t>(r.sparse_refactors));
    put(p, static_cast<std::uint8_t>(r.carried ? 1 : 0));
    put(p, static_cast<std::uint64_t>(r.device_stamp_skips));
    put(p, static_cast<std::uint64_t>(r.symbolic_cache_hits));
    put(p, r.ordering_seconds);
    put(p, r.numeric_seconds);
    put(p, r.metric);
    put(p, r.attempts);
    put(p, static_cast<std::uint8_t>(r.quarantined ? 1 : 0));
    put_str(p, r.description);
    put_str(p, r.error);
    put_str(p, r.retry_log);
    return p;
}

bool decode(const std::string& payload, FaultSimResult& r) {
    Reader rd{payload};
    std::uint8_t kind = 0;
    std::int32_t id = 0;
    std::uint8_t simulated = 0, has_detect = 0, carried = 0;
    double detect = 0.0;
    std::uint64_t nr = 0, msize = 0, saved = 0, integrated = 0, interp = 0;
    std::uint64_t bypass = 0, refactors = 0, dskips = 0, cache_hits = 0;
    std::uint8_t quarantined = 0;
    if (!rd.get(kind) || kind != kFaultRecord || !rd.get(id) ||
        !rd.get(simulated) || !rd.get(has_detect) ||
        !rd.get(detect) || !rd.get(r.probability) || !rd.get(r.sim_seconds) ||
        !rd.get(nr) || !rd.get(msize) || !rd.get(saved) ||
        !rd.get(integrated) || !rd.get(interp) || !rd.get(bypass) ||
        !rd.get(refactors) || !rd.get(carried) || !rd.get(dskips) ||
        !rd.get(cache_hits) || !rd.get(r.ordering_seconds) ||
        !rd.get(r.numeric_seconds) || !rd.get(r.metric) ||
        !rd.get(r.attempts) || !rd.get(quarantined) ||
        !rd.get_str(r.description) || !rd.get_str(r.error) ||
        !rd.get_str(r.retry_log))
        return false;
    r.fault_id = id;
    r.simulated = simulated != 0;
    r.quarantined = quarantined != 0;
    if (has_detect) r.detect_time = detect;
    r.nr_iterations = static_cast<std::size_t>(nr);
    r.matrix_size = static_cast<std::size_t>(msize);
    r.steps_saved = static_cast<std::size_t>(saved);
    r.steps_integrated = static_cast<std::size_t>(integrated);
    r.steps_interpolated = static_cast<std::size_t>(interp);
    r.bypass_solves = static_cast<std::size_t>(bypass);
    r.sparse_refactors = static_cast<std::size_t>(refactors);
    r.carried = carried != 0;
    r.device_stamp_skips = static_cast<std::size_t>(dskips);
    r.symbolic_cache_hits = static_cast<std::size_t>(cache_hits);
    return rd.pos == payload.size();
}

std::string encode_nominal(const NominalRecord& n) {
    std::string p;
    put(p, kNominalRecord);
    put_str(p, n.analysis);
    put(p, static_cast<std::uint32_t>(n.vectors.size()));
    for (const auto& [name, v] : n.vectors) {
        put_str(p, name);
        put(p, static_cast<std::uint32_t>(v.size()));
        p.append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(double));
    }
    put(p, static_cast<std::uint32_t>(n.scalars.size()));
    for (const auto& [name, x] : n.scalars) {
        put_str(p, name);
        put(p, x);
    }
    return p;
}

/// Every count is checked against the bytes left before anything is
/// sized from it, so a damaged payload is rejected, never over-allocated.
bool decode_nominal(const std::string& payload, NominalRecord& n) {
    Reader rd{payload};
    std::uint8_t kind = 0;
    std::uint32_t count = 0;
    if (!rd.get(kind) || kind != kNominalRecord || !rd.get_str(n.analysis) ||
        !rd.get(count))
        return false;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        std::uint32_t len = 0;
        if (!rd.get_str(name) || !rd.get(len) ||
            (payload.size() - rd.pos) / sizeof(double) < len)
            return false;
        std::vector<double> v(len);
        if (len > 0)
            std::memcpy(v.data(), payload.data() + rd.pos,
                        len * sizeof(double));
        rd.pos += len * sizeof(double);
        n.vectors.emplace_back(std::move(name), std::move(v));
    }
    if (!rd.get(count)) return false;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        std::int64_t x = 0;
        if (!rd.get_str(name) || !rd.get(x)) return false;
        n.scalars.emplace_back(std::move(name), x);
    }
    return rd.pos == payload.size();
}

/// Scan a store image: header + every intact record.  Returns the byte
/// offset just past the last good record (0 when the header is absent,
/// foreign or of another version) -- the single decoding path shared by
/// the appendable store and the read-only snapshot so both stop at a torn
/// tail identically.  When `expected_manifest` is given and the header
/// names a different campaign, the scan stops after the header: the
/// caller is about to restart the file, so decoding a possibly huge
/// foreign record log would be pure waste.
struct ScanResult {
    bool header_ok = false;
    std::uint64_t manifest = 0;
    std::size_t good_end = 0;
    std::vector<FaultSimResult> records;
    std::optional<NominalRecord> nominal;
};

ScanResult scan_store(const std::string& bytes,
                      std::optional<std::uint64_t> expected_manifest =
                          std::nullopt) {
    ScanResult out;
    Reader rd{bytes};
    std::uint32_t magic = 0, version = 0;
    std::uint64_t stored_manifest = 0;
    if (!rd.get(magic) || !rd.get(version) || !rd.get(stored_manifest) ||
        magic != kMagic || version != kVersion)
        return out;
    out.header_ok = true;
    out.manifest = stored_manifest;
    out.good_end = rd.pos;
    if (expected_manifest && stored_manifest != *expected_manifest)
        return out;
    for (;;) {
        std::uint32_t len = 0;
        if (!rd.get(len)) break;
        if (bytes.size() - rd.pos < len + sizeof(std::uint64_t)) break;
        const std::string payload = bytes.substr(rd.pos, len);
        rd.pos += len;
        std::uint64_t check = 0;
        if (!rd.get(check)) break;
        if (check != fnv1a(payload)) break;
        if (!payload.empty() &&
            payload[0] == static_cast<char>(kNominalRecord)) {
            // The first nominal record wins, like the first per fault id.
            NominalRecord n;
            if (!decode_nominal(payload, n)) break;
            if (!out.nominal) out.nominal = std::move(n);
        } else {
            FaultSimResult r;
            if (!decode(payload, r)) break;
            out.records.push_back(std::move(r));
        }
        out.good_end = rd.pos;
    }
    return out;
}

std::string read_file_bytes(const std::string& path) {
    std::string bytes;
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    return bytes;
}

} // namespace

std::string store_header(std::uint64_t manifest) {
    std::string hdr;
    put(hdr, kMagic);
    put(hdr, kVersion);
    put(hdr, manifest);
    return hdr;
}

std::string encode_record(const FaultSimResult& r) { return frame(encode(r)); }

std::string encode_record(const NominalRecord& n) {
    return frame(encode_nominal(n));
}

void sync_parent_directory(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
    std::filesystem::path dir = std::filesystem::path(path).parent_path();
    if (dir.empty()) dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

ResultStore::ResultStore(std::string path, std::uint64_t manifest,
                         Durability durability)
    : path_(std::move(path)), manifest_(manifest), durability_(durability) {
    require(!path_.empty(), "result store: empty path");

    const std::string bytes = read_file_bytes(path_);
    ScanResult scan = scan_store(bytes, manifest_);

    if (scan.header_ok && scan.manifest == manifest_) {
        loaded_ = std::move(scan.records);
        loaded_nominal_ = std::move(scan.nominal);
        // Trim any partial tail, then continue appending after it.
        if (scan.good_end < bytes.size())
            std::filesystem::resize_file(path_, scan.good_end);
        out_.open(path_, std::ios::binary | std::ios::app);
        require(out_.good(), "result store: cannot append to " + path_);
    } else {
        // Fresh or foreign store: restart with our manifest.
        const bool existed = std::filesystem::exists(path_);
        out_.open(path_, std::ios::binary | std::ios::trunc);
        require(out_.good(), "result store: cannot write " + path_);
        const std::string hdr = store_header(manifest_);
        out_.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
        out_.flush();
        require(out_.good(), "result store: header write failed: " + path_);
        // A crash right after create could lose the *directory entry* even
        // with every append fsynced: in Fsync mode pin the new name too.
        if (!existed && durability_ == Durability::Fsync)
            sync_parent_directory(path_);
    }
    sync_to_disk();
}

ResultStore::~ResultStore() {
    // Close-time durability: whatever the page cache still holds reaches
    // stable storage before the store object goes away (Fsync mode only;
    // Flush mode's contract ends at the kernel).
    out_.flush();
    sync_to_disk();
}

void ResultStore::sync_to_disk() {
    if (durability_ != Durability::Fsync) return;
#if defined(__unix__) || defined(__APPLE__)
    // std::ofstream exposes no descriptor; a second descriptor on the same
    // file suffices -- fsync(2) syncs the file, not the descriptor, and
    // out_ has already pushed the bytes to the kernel via flush().
    const int fd = ::open(path_.c_str(), O_WRONLY);
    if (fd >= 0) {
        const bool ok = ::fsync(fd) == 0;
        ::close(fd);
        require(ok, "result store: fsync failed: " + path_);
    }
#endif
}

void ResultStore::append(const FaultSimResult& r) {
    obs::Span sp(obs::Phase::StoreAppend);
    const std::string rec = encode_record(r);
    write(rec, false);
    if (obs::events_enabled())
        obs::emit_event(
            "store_flush",
            {obs::arg("fault_id", static_cast<std::int64_t>(r.fault_id)),
             obs::arg("bytes", static_cast<std::int64_t>(rec.size())),
             obs::arg("carried", static_cast<std::int64_t>(r.carried))});
}

void ResultStore::append_nominal(const NominalRecord& n) {
    obs::Span sp(obs::Phase::StoreAppend);
    write(encode_record(n), true);
}

void ResultStore::write(const std::string& rec, bool nominal) {
    {
        MutexLock lk(mu_);
        // The nominal record has its own site, so a fault-append window
        // (`store.append=torn@N`) keeps counting fault records only.
        auto fp = nominal ? robust::hit("store.append_nominal")
                          : robust::hit("store.append");
        if (fp) {
            // Torn-write injection: half the record reaches the kernel,
            // then the append dies -- by exception (`torn`, the contained
            // I/O-error path) or with the process (`torn_crash`, the
            // crash-resume path).  Either way the next open must trim the
            // partial record and resume exactly after the last good one.
            if (fp->action == robust::FailAction::Torn ||
                fp->action == robust::FailAction::TornCrash) {
                out_.write(rec.data(),
                           static_cast<std::streamsize>(rec.size() / 2));
                out_.flush();
                if (fp->action == robust::FailAction::TornCrash)
                    std::_Exit(137);
                throw Error("failpoint: torn write in " + path_);
            }
        }
        out_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
        out_.flush();
        require(out_.good(), "result store: append failed: " + path_);
        sync_to_disk();
    }
    if (obs::metrics_enabled()) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("store.appends").add(1);
        reg.counter("store.bytes").add(rec.size());
    }
}

std::optional<StoreSnapshot> load_store(const std::string& path) {
    if (path.empty()) return std::nullopt;
    ScanResult scan = scan_store(read_file_bytes(path));
    if (!scan.header_ok) return std::nullopt;
    StoreSnapshot snap;
    snap.manifest = scan.manifest;
    snap.records = std::move(scan.records);
    snap.nominal = std::move(scan.nominal);
    return snap;
}

RepairReport repair_store(const std::string& path) {
    require(std::filesystem::exists(path),
            "repair-store: no such file: " + path);
    const std::string bytes = read_file_bytes(path);
    ScanResult scan = scan_store(bytes);
    RepairReport rep;
    rep.bytes_total = bytes.size();
    rep.header_ok = scan.header_ok;
    if (!scan.header_ok) {
        // No recoverable prefix: leave the file alone rather than
        // truncating it to nothing.
        rep.bytes_kept = bytes.size();
        return rep;
    }
    rep.manifest = scan.manifest;
    rep.records_kept = scan.records.size();
    rep.bytes_kept = scan.good_end;
    if (scan.good_end < bytes.size())
        std::filesystem::resize_file(path, scan.good_end);
    return rep;
}

} // namespace catlift::batch
