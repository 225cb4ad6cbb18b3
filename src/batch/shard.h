// catlift/batch/shard.h
//
// Store sharding for the multi-process campaign fabric: every worker
// process appends into its own shard file (`<base>.shard-<k>`) so no two
// processes ever share an open store, and a merge/compaction pass folds
// the shards into the one canonical store the rest of the toolchain
// reads.  All files -- shards and canonical -- are ordinary ResultStore
// logs bound to the *same* campaign manifest; a shard written under any
// other manifest is a configuration error and is rejected, never silently
// mixed in.
//
// Merge semantics (the properties tests/fabric_test.cpp pins):
//  * idempotent -- records are deduped by fault id (canonical store
//    first, then shards in the given order) and written sorted by fault
//    id after exactly one nominal record (the first found in that same
//    order), so re-merging the same inputs leaves the canonical store
//    byte-identical;
//  * torn-tolerant -- a shard whose writer died mid-append contributes
//    every record before the tear, exactly as a resume would see it;
//  * strict about identity -- a foreign-manifest shard throws.

#pragma once

#include "batch/result_store.h"

#include <cstdint>
#include <string>
#include <vector>

namespace catlift::batch {

/// Path of worker `k`'s shard of the store at `base`.
std::string shard_path(const std::string& base, std::size_t k);

/// Every existing `<base>.shard-<k>` in ascending shard order.
std::vector<std::string> list_shards(const std::string& base);

/// What a merge did (anafaultc --merge-shards prints this).
struct ShardMergeReport {
    std::size_t shards_merged = 0;
    std::size_t records_in = 0;    ///< canonical + shard records scanned
    std::size_t records_kept = 0;  ///< unique fault ids written
    std::size_t duplicates = 0;    ///< records dropped by the dedupe
    bool changed = false;          ///< canonical file was rewritten
};

/// Fold `shards` (plus whatever the canonical store at `dest` already
/// holds under `manifest`) into a canonical store at `dest`.  The first
/// record seen for a fault id wins: canonical first, then shards in the
/// given order -- so a record already merged can never be displaced by a
/// later re-simulation of the same fault.  Output records are sorted by
/// fault id and the file is replaced atomically (write + rename); when
/// the merged image is byte-identical to the existing canonical store the
/// file is left untouched and `changed` stays false.  Throws
/// catlift::Error on an unreadable shard or one bound to a different
/// manifest.
ShardMergeReport merge_shards(const std::string& dest, std::uint64_t manifest,
                              const std::vector<std::string>& shards,
                              Durability durability = Durability::Flush);

} // namespace catlift::batch
