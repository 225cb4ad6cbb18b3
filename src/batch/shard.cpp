#include "batch/shard.h"

#include "geom/base.h"
#include "obs/obs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace catlift::batch {

namespace fs = std::filesystem;

std::string shard_path(const std::string& base, std::size_t k) {
    return base + ".shard-" + std::to_string(k);
}

std::vector<std::string> list_shards(const std::string& base) {
    std::vector<std::pair<std::size_t, std::string>> found;
    const fs::path base_path(base);
    fs::path dir = base_path.parent_path();
    if (dir.empty()) dir = ".";
    const std::string prefix = base_path.filename().string() + ".shard-";
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) != 0) continue;
        const std::string tail = name.substr(prefix.size());
        if (tail.empty() ||
            tail.find_first_not_of("0123456789") != std::string::npos)
            continue;
        found.emplace_back(std::stoull(tail),
                           (base_path.parent_path() / name).string());
    }
    std::sort(found.begin(), found.end());
    std::vector<std::string> out;
    out.reserve(found.size());
    for (auto& [k, path] : found) out.push_back(std::move(path));
    return out;
}

ShardMergeReport merge_shards(const std::string& dest, std::uint64_t manifest,
                              const std::vector<std::string>& shards,
                              Durability durability) {
    require(!dest.empty(), "merge-shards: empty canonical store path");
    ShardMergeReport rep;

    // First record per fault id wins; canonical store before any shard so
    // a fault already merged keeps its original record forever.
    // The nominal record follows the same rule: the canonical store's,
    // else the first shard's that has one.
    std::map<int, FaultSimResult> by_id;
    std::optional<NominalRecord> nominal;
    auto take = [&](StoreSnapshot&& snap) {
        for (auto& r : snap.records) {
            ++rep.records_in;
            if (!by_id.emplace(r.fault_id, std::move(r)).second)
                ++rep.duplicates;
        }
        if (!nominal) nominal = std::move(snap.nominal);
    };

    std::string existing;
    {
        std::ifstream in(dest, std::ios::binary);
        if (in.good())
            existing.assign(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
    }
    if (!existing.empty()) {
        auto snap = load_store(dest);
        // A canonical store from another campaign is restarted, the same
        // treatment ResultStore gives a foreign file on open.
        if (snap && snap->manifest == manifest) take(std::move(*snap));
    }

    for (const std::string& path : shards) {
        auto snap = load_store(path);
        require(snap.has_value(),
                "merge-shards: unreadable or non-store shard: " + path);
        require(snap->manifest == manifest,
                "merge-shards: shard " + path +
                    " was written under a different campaign manifest");
        take(std::move(*snap));
        ++rep.shards_merged;
    }
    rep.records_kept = by_id.size();

    // Compose the merged image: header + the nominal record + records
    // sorted by fault id (the std::map iteration order), which is what
    // makes a re-merge of the same inputs byte-identical.
    std::string image = store_header(manifest);
    if (nominal) image += encode_record(*nominal);
    for (const auto& [id, r] : by_id) image += encode_record(r);

    if (image == existing) return rep;  // no-op: leave dest untouched

    // Replace atomically so a crash mid-merge can never destroy the
    // canonical store: the old file survives until the rename commits.
    const std::string tmp = dest + ".merge-tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        require(out.good(), "merge-shards: cannot write " + tmp);
        out.write(image.data(), static_cast<std::streamsize>(image.size()));
        out.flush();
        require(out.good(), "merge-shards: write failed: " + tmp);
    }
#if defined(__unix__) || defined(__APPLE__)
    if (durability == Durability::Fsync) {
        const int fd = ::open(tmp.c_str(), O_WRONLY);
        if (fd >= 0) {
            const bool ok = ::fsync(fd) == 0;
            ::close(fd);
            require(ok, "merge-shards: fsync failed: " + tmp);
        }
    }
#endif
    std::error_code ec;
    fs::rename(tmp, dest, ec);
    require(!ec, "merge-shards: rename to " + dest + " failed: " +
                     ec.message());
    if (durability == Durability::Fsync) sync_parent_directory(dest);
    rep.changed = true;

    if (obs::metrics_enabled()) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("store.shard_merges").add(1);
        reg.counter("store.merge_duplicates").add(rep.duplicates);
    }
    if (obs::events_enabled())
        obs::emit_event(
            "shards_merged",
            {obs::arg("shards", static_cast<std::int64_t>(rep.shards_merged)),
             obs::arg("records",
                      static_cast<std::int64_t>(rep.records_kept)),
             obs::arg("duplicates",
                      static_cast<std::int64_t>(rep.duplicates))});
    return rep;
}

} // namespace catlift::batch
