#include "result_store.hh"

#include <filesystem>

#include "obs/metrics.hh"
#include "store/layout.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::service {

namespace {

/** Store metric handles, mirroring StoreStats (docs/OBSERVABILITY.md). */
struct StoreMetrics
{
    obs::Counter memoryHits{"store.memory_hits"};
    obs::Counter diskHits{"store.disk_hits"};
    obs::Counter misses{"store.misses"};
    obs::Counter evictions{"store.evictions"};
    obs::Counter corruptRecords{"store.corrupt_records"};
    obs::Counter futureRecords{"store.future_records"};
    obs::Counter writes{"store.writes"};
    obs::Counter writeFailures{"store.write_failures"};
    obs::Gauge lruEntries{"store.lru_entries"};
    obs::Gauge lruBytes{"store.lru_bytes"};
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics *const metrics = new StoreMetrics();
    return *metrics;
}

/** Does @p dir hold any legacy per-file records ("r-*.rec")? */
bool
hasLegacyRecords(const std::string &dir)
{
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (davf::store::isLegacyRecordName(
                it->path().filename().string())) {
            return true;
        }
    }
    return false;
}

} // namespace

ResultStore::ResultStore(Options the_options)
    : options(std::move(the_options))
{
    if (options.dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create store dir '",
                   options.dir, "': ", ec.message());
    }

    if (hasLegacyRecords(options.dir)) {
        davf_throw(ErrorKind::BadInput, "store dir '", options.dir,
                   "' holds legacy per-file records (r-*.rec); run "
                   "'davf_store migrate ", options.dir,
                   "' to absorb them into the indexed store");
    }
    try {
        index = std::make_unique<davf::store::IndexStore>(
            davf::store::IndexStore::Options{.dir = options.dir});
    } catch (const DavfError &error) {
        // Another process owns the index lock. One writer per
        // directory: this process serves from memory and leaves the
        // directory to the owner. Any other open failure (I/O error,
        // unrecoverable index) fails the open, so no caller counts
        // writes that never reach the disk.
        if (error.kind() != ErrorKind::Busy)
            throw;
        davf_warn("cannot open indexed store in '", options.dir,
                  "' (serving from memory only): ", error.what());
    }
}

std::string
ResultStore::serializeRecord(const std::string &key,
                             const std::string &payload,
                             uint32_t text_version)
{
    return davf::store::serializeRecordText(key, payload, text_version);
}

Result<std::pair<std::string, std::string>>
ResultStore::parseRecord(const std::string &text)
{
    return davf::store::parseRecordText(text);
}

void
ResultStore::remember(const std::string &key, const std::string &payload)
{
    // Caller holds the mutex.
    if (options.memCapacity == 0)
        return;
    auto it = lruIndex.find(key);
    if (it != lruIndex.end()) {
        lruBytes += payload.size();
        lruBytes -= it->second->second.size();
        it->second->second = payload;
        lru.splice(lru.begin(), lru, it->second);
    } else {
        lru.emplace_front(key, payload);
        lruIndex[key] = lru.begin();
        lruBytes += key.size() + payload.size();
        while (lru.size() > options.memCapacity) {
            lruBytes -=
                lru.back().first.size() + lru.back().second.size();
            lruIndex.erase(lru.back().first);
            lru.pop_back();
            ++counters.evictions;
            storeMetrics().evictions.add(1);
        }
    }
    storeMetrics().lruEntries.set(static_cast<int64_t>(lru.size()));
    storeMetrics().lruBytes.set(static_cast<int64_t>(lruBytes));
}

std::optional<std::string>
ResultStore::find(const std::string &key, bool count_miss)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (auto it = lruIndex.find(key); it != lruIndex.end()) {
            ++counters.memoryHits;
            storeMetrics().memoryHits.add(1);
            lru.splice(lru.begin(), lru, it->second);
            return it->second->second;
        }
    }

    if (index != nullptr) {
        using Status = davf::store::IndexStore::LookupStatus;
        auto looked = index->lookup(key);
        switch (looked.status) {
          case Status::Hit: {
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.diskHits;
            storeMetrics().diskHits.add(1);
            remember(key, looked.payload);
            return std::move(looked.payload);
          }
          case Status::Future: {
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.futureRecords;
            storeMetrics().futureRecords.add(1);
            break;
          }
          case Status::Corrupt:
          case Status::Collision: {
            // Both degrade to a miss (the corrupt slot was already
            // dropped; a collision belongs to another key and stays).
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.corruptRecords;
            storeMetrics().corruptRecords.add(1);
            break;
          }
          case Status::Miss:
            break;
        }
    }

    if (count_miss) {
        const std::lock_guard<std::mutex> lock(mutex);
        ++counters.misses;
        storeMetrics().misses.add(1);
    }
    return std::nullopt;
}

void
ResultStore::store(const std::string &key, const std::string &payload,
                   uint32_t text_version)
{
    // A failed publish (ENOSPC, EIO, armed crash point) is counted and
    // swallowed: the result was computed and still reaches the caller
    // through the memory tier — a full disk must degrade a
    // serve/campaign to cache misses, never kill it.
    {
        const std::lock_guard<std::mutex> lock(mutex);
        remember(key, payload);
    }
    if (index != nullptr) {
        try {
            static const crashpoint::CrashPoint publish_point(
                "store.publish");
            publish_point.fire();
            if (text_version == davf::store::kRecordTextVersion)
                index->put(key, payload);
            else
                index->putRecord(key, serializeRecord(key, payload,
                                                      text_version));
        } catch (const DavfError &error) {
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.writeFailures;
            storeMetrics().writeFailures.add(1);
            davf_warn("store record publish to index in '", options.dir,
                      "' failed (serving from memory): ", error.what());
            return;
        }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    ++counters.writes;
    storeMetrics().writes.add(1);
}

StoreStats
ResultStore::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    StoreStats snapshot = counters;
    snapshot.lruEntries = lru.size();
    snapshot.lruBytes = lruBytes;
    return snapshot;
}

std::optional<davf::store::IndexStoreStats>
ResultStore::indexStats() const
{
    if (index == nullptr)
        return std::nullopt;
    return index->stats();
}

} // namespace davf::service
