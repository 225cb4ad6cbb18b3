// catlift/batch/result_store.h
//
// Crash-resumable campaign persistence: an append-only binary log of
// per-fault simulation results, bound to a manifest hash of everything
// that determines those results (circuit text, fault list, campaign
// options).  A campaign opens the store before scheduling; every record
// already present -- written by an earlier run that crashed, was killed,
// or simply finished -- is handed back so only the remaining faults are
// simulated.  A store whose manifest does not match (the circuit or the
// options changed) is discarded and restarted, never silently reused.
//
// Besides the per-fault records the log holds at most one *nominal*
// record: the campaign's fault-free analysis, written once before the
// first fault record, so a resume, a fabric worker or an incremental
// revision loads it instead of simulating it again.
//
// The log tolerates truncation anywhere: each record carries its payload
// length and an FNV-1a checksum, and loading stops at the first short or
// corrupt record, trimming the file back to the last good byte.  Killing
// a campaign mid-write therefore costs at most one fault's result (or
// the nominal record, which the next run simulates again).

#pragma once

#include "core/thread_annotations.h"
#include "geom/base.h"

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace catlift::batch {

/// Outcome of one fault simulation -- the unit the store persists and the
/// campaign layer aggregates (anafault::FaultSimResult is an alias).
struct FaultSimResult {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    bool simulated = false;            ///< kernel run completed
    std::string error;                 ///< failure reason when !simulated
    std::optional<double> detect_time; ///< earliest detection instant
    double sim_seconds = 0.0;          ///< kernel wall time
    std::size_t nr_iterations = 0;
    std::size_t matrix_size = 0;       ///< MNA unknowns (source model grows it)
    std::size_t steps_saved = 0;       ///< grid steps skipped by early abort
    /// Companion steps the kernel actually solved (an adaptive step spanning
    /// several grid intervals counts once) and grid samples the adaptive
    /// controller filled by interpolation instead of a solve.
    std::size_t steps_integrated = 0;
    std::size_t steps_interpolated = 0;
    /// Incremental-kernel counters: Newton solves that reused the previous
    /// factorization (modified-Newton bypass) and sparse numeric
    /// refactorizations on the reused pattern (0 on the dense path).
    std::size_t bypass_solves = 0;
    std::size_t sparse_refactors = 0;
    /// Provenance: the verdict was carried from a baseline store by the
    /// incremental cross-revision engine instead of being simulated in the
    /// campaign that wrote this record (v4 stores persist the flag).
    bool carried = false;
    /// Campaign-shared symbolic kernel (v5): MOS evaluations skipped by the
    /// per-device bypass, whether this kernel build adopted the campaign's
    /// shared elimination order, and the sparse time split (one-time
    /// analyses vs pattern-reused refactors).
    std::size_t device_stamp_skips = 0;
    std::size_t symbolic_cache_hits = 0;
    double ordering_seconds = 0.0;
    double numeric_seconds = 0.0;
    /// Analysis-specific detection metric (v5): worst dB deviation for an
    /// AC campaign record, worst |dV| for a DC screen record, unused (0)
    /// for transient records -- detect_time likewise holds the analysis'
    /// own coordinate (seconds / hertz / 0-at-detection respectively).
    double metric = 0.0;
    /// Failure containment (v6): how many simulation attempts this fault
    /// consumed (1 = first try; >1 means the retry/degradation ladder
    /// ran), whether the fault retired `quarantined` (every rung of the
    /// ladder failed -- a verdict, carried across revisions like any
    /// other), and the per-attempt failure log ("attempt K [config]:
    /// error; ...", empty when the first attempt succeeded).
    std::uint32_t attempts = 1;
    bool quarantined = false;
    std::string retry_log;
};

/// The campaign's nominal (fault-free) analysis as the store persists it
/// (v7): named double vectors plus named integer scalars, each stored bit
/// for bit, so the batch layer stays free of simulator types.  The
/// campaign layer maps its tran waveforms, AC sweep or DC operating point
/// and the campaign-shared symbolic order onto them (anafault/driver.h).
/// The store's manifest already hashes the circuit text, the analysis
/// spec and every sim knob, so the record is valid for exactly the store
/// that holds it.
struct NominalRecord {
    std::string analysis;  ///< "tran" | "ac" | "dc"
    std::vector<std::pair<std::string, std::vector<double>>> vectors;
    std::vector<std::pair<std::string, std::int64_t>> scalars;
};

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit rolling hash (pass the previous result as `h` to chain).
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kFnvOffsetBasis);
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = kFnvOffsetBasis);

/// How far an append is pushed toward stable storage before it returns.
///
/// Durability contract:
///  * Flush (default): every append is flushed to the kernel (write(2)
///    semantics) before returning.  A process kill or crash after append
///    loses nothing; the trailing-record trim covers a kill *mid*-append.
///    Power loss may lose recently appended records still in the page
///    cache -- the log stays well-formed, so a resume re-simulates them.
///  * Fsync: every append additionally fsyncs the file, and close fsyncs
///    once more.  Records survive power loss at the cost of one fsync
///    per fault retired.
/// In both modes the log tolerates truncation at any byte: loading stops
/// at the first short or corrupt record and trims back to the last good
/// byte, so the worst case is always "re-simulate the torn fault".
enum class Durability : std::uint8_t { Flush, Fsync };

/// Append-only result log.  Thread-safe: workers append concurrently.
class ResultStore {
public:
    /// Open (creating if needed) the store at `path` for the campaign
    /// identified by `manifest`.  Existing records are loaded when the
    /// stored manifest matches; otherwise the file is restarted.  A
    /// trailing partial record is trimmed.  Throws catlift::Error on I/O
    /// failure.
    ResultStore(std::string path, std::uint64_t manifest,
                Durability durability = Durability::Flush);
    ~ResultStore();

    /// Records recovered from disk at open (file order).
    const std::vector<FaultSimResult>& loaded() const { return loaded_; }
    /// The nominal record recovered at open (the first one in the file).
    const std::optional<NominalRecord>& loaded_nominal() const {
        return loaded_nominal_;
    }

    /// Append one result and flush (and, under Durability::Fsync, sync)
    /// it to disk.  Failpoint site `store.append` (torn / torn_crash /
    /// generic actions) injects the I/O failures the containment tests
    /// exercise.
    void append(const FaultSimResult& r);
    /// Append the nominal record with append()'s flush and durability;
    /// failpoint site `store.append_nominal` (same actions).  The campaign
    /// writes it before its first fault record.
    void append_nominal(const NominalRecord& n);

    const std::string& path() const { return path_; }
    std::uint64_t manifest() const { return manifest_; }

private:
    void sync_to_disk();  ///< fsync the file (Durability::Fsync only)
    /// Write one encoded record (`nominal` picks the failpoint site).
    void write(const std::string& rec, bool nominal);

    // path_/manifest_/durability_/loaded_ are immutable after the
    // constructor; only the append path is concurrent, so the log stream
    // is the one guarded field (the constructor and destructor touch it
    // before/after the store is shared -- clang's analysis exempts them).
    std::string path_;
    std::uint64_t manifest_ = 0;
    Durability durability_ = Durability::Flush;
    std::vector<FaultSimResult> loaded_;
    std::optional<NominalRecord> loaded_nominal_;
    Mutex mu_;
    std::ofstream out_ CATLIFT_GUARDED_BY(mu_);
};

/// Read-only view of a store file: the manifest it was written under plus
/// every intact record.  Unlike opening a ResultStore, loading a snapshot
/// never truncates, restarts or locks the file -- the incremental engine
/// uses it to read a *baseline* store whose manifest intentionally differs
/// from the campaign about to run.
struct StoreSnapshot {
    std::uint64_t manifest = 0;
    std::vector<FaultSimResult> records;
    std::optional<NominalRecord> nominal;  ///< first nominal record, if any
};

/// Load a snapshot of the store at `path`.  Returns std::nullopt when the
/// file is missing, unreadable, or not a current-version store; a trailing
/// torn record is ignored exactly as ResultStore's loader would.
std::optional<StoreSnapshot> load_store(const std::string& path);

/// The exact header bytes a fresh ResultStore writes for `manifest`.
std::string store_header(std::uint64_t manifest);

/// One record (length + payload + checksum), byte-identical to what
/// ResultStore::append writes.  The shard merge pass composes a canonical
/// store from these directly, bypassing the append path (and its
/// `store.append` failpoint site) so a merge can never be torn by an
/// injection aimed at a worker.
std::string encode_record(const FaultSimResult& r);
std::string encode_record(const NominalRecord& n);

/// fsync the directory containing `path`, so a freshly created file's
/// directory entry itself survives power loss (fsync on the file alone
/// does not cover the rename/create in its parent).  Best-effort no-op
/// off POSIX.
void sync_parent_directory(const std::string& path);

/// Outcome of an explicit offline repair (anafaultc --repair-store).
struct RepairReport {
    bool header_ok = false;        ///< magic/version/manifest intact
    std::uint64_t manifest = 0;
    std::size_t records_kept = 0;  ///< intact records preserved
    std::size_t bytes_total = 0;   ///< file size before the repair
    std::size_t bytes_kept = 0;    ///< size after trimming to last good byte
};

/// Trim the store at `path` back to its last intact record -- the same
/// recovery ResultStore performs silently on open, surfaced as an explicit
/// command that reports what was kept and dropped.  A file without a valid
/// header is left untouched (header_ok=false: nothing recoverable).
/// Throws catlift::Error when the file does not exist.
RepairReport repair_store(const std::string& path);

} // namespace catlift::batch
