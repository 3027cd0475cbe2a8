/**
 * @file
 * The persistent content-addressed result store behind davf_serve.
 *
 * A record maps a **store key** — the workspace build fingerprint plus
 * the serialized shard spec (structure, d, cycle, wire range, sampling
 * knobs) — to the shard's outcome payload in the exact hexfloat token
 * grammar the campaign journal uses, so a served result aggregates
 * bit-identically to a freshly computed one.
 *
 * Tiers:
 *  - an in-memory LRU map (bounded entry count) absorbs the hot set;
 *  - a persistent disk tier: one append-only segment data file plus a
 *    persistent extendible-hash index (store/index_store.hh) — O(1)
 *    lookups with lock-free readers.
 *
 * **One writer per directory.** The disk tier belongs to the process
 * holding its `index.lock`. A ResultStore that loses the lock
 * (DavfError{Busy}) warns and runs memory-only (indexed() == false):
 * it serves its own writes from the LRU tier and never touches the
 * directory. Any other disk-tier open failure fails the open. A
 * directory that
 * still holds legacy per-file records (`r-*.rec`) is refused at open
 * with ErrorKind::BadInput; `davf_store migrate DIR` (store/migrate.hh)
 * is the one reader of that format.
 *
 * Loads are corruption-tolerant in the same spirit as the lenient
 * checkpoint loader: a truncated, wrong-version, or otherwise
 * unparseable record — and a hash-collision record whose embedded key
 * disagrees — is reported as a miss (tallied in StoreStats), so the
 * caller recomputes and the rewrite repairs the store; a damaged
 * record also drops its index slot, while a record from a newer
 * grammar keeps it. Nothing in this class ever throws on a damaged
 * record, and a failed record *publish* (full disk, I/O error) is
 * likewise swallowed after counting — the memory tier still serves
 * the result. An uncreatable or unusable store directory
 * (DavfError{Io}) or an unmigrated legacy one (DavfError{BadInput})
 * fails the open.
 *
 * The publish path carries the `store.publish` crash point
 * (util/crashpoint.hh); the disk tier adds the `index.*` family.
 * Offline checking lives in store/index_fsck.hh, behind the
 * `davf_store` CLI.
 */

#ifndef DAVF_SERVICE_RESULT_STORE_HH
#define DAVF_SERVICE_RESULT_STORE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "store/index_store.hh"
#include "util/error.hh"

namespace davf::service {

/** Monotonic counters (and two gauges) describing one store. */
struct StoreStats
{
    uint64_t memoryHits = 0;     ///< Served from the LRU tier.
    uint64_t diskHits = 0;       ///< Served from the disk tier.
    uint64_t misses = 0;         ///< No (usable) record existed.
    uint64_t evictions = 0;      ///< LRU entries displaced.
    uint64_t corruptRecords = 0; ///< Unreadable records treated as misses.
    uint64_t futureRecords = 0;  ///< Newer-grammar records; miss, kept.
    uint64_t writes = 0;         ///< Records stored (on disk if indexed()).
    uint64_t writeFailures = 0;  ///< Publishes that failed (non-fatal).

    uint64_t lruEntries = 0;     ///< Gauge: entries in the LRU tier now.
    uint64_t lruBytes = 0;       ///< Gauge: key+payload bytes held now.

    bool operator==(const StoreStats &) const = default;
};

/** The two-tier persistent result store (see file comment). */
class ResultStore
{
  public:
    static constexpr uint32_t kVersion = 2;

    struct Options
    {
        /** Record directory; empty keeps the store memory-only. */
        std::string dir;

        /** LRU tier capacity in entries (0 disables the tier). */
        size_t memCapacity = 4096;
    };

    explicit ResultStore(Options options);

    /**
     * The payload stored under @p key, or nullopt (a miss — including
     * a corrupt or mismatched record, which the next store() repairs).
     * Keys and payloads must be single-line strings.
     */
    std::optional<std::string> lookup(const std::string &key)
    {
        return find(key, true);
    }

    /**
     * lookup() again for a key whose miss the caller already counted
     * (the scheduler's double-check under its compute lock): a hit
     * counts as usual, a miss counts nothing, so `misses` stays one
     * per computed shard.
     */
    std::optional<std::string> recheck(const std::string &key)
    {
        return find(key, false);
    }

    /**
     * Persist @p payload under @p key (memory tier + disk tier).
     * @p text_version picks the record grammar revision on disk: 2 for
     * plain payloads (byte-identical to every earlier release), 3 for
     * payloads carrying an attribution section, so old binaries see a
     * clean future-version miss instead of a checksum surprise.
     */
    void store(const std::string &key, const std::string &payload,
               uint32_t text_version = 2);

    StoreStats stats() const;

    /** Does this store own a disk tier? False when memory-only by
     * choice (no dir) or because another process holds the lock. */
    bool indexed() const { return index != nullptr; }

    /** Disk-tier counters; nullopt for memory-only stores. */
    std::optional<davf::store::IndexStoreStats> indexStats() const;

    /**
     * @name Record text form (exposed for tests and fuzzing)
     * A record is "davf-store v2\nkey <key>\npayload <payload>\n"
     * "sum <fnv1a of key\\npayload>\nend\n". parseRecord returns the
     * (key, payload) pair or an Err for any damage: bad magic, unknown
     * version, missing fields, checksum mismatch (a garbled byte),
     * missing end sentinel (a torn write), trailing garbage. Both
     * delegate to store/layout.hh so every tier shares one grammar.
     */
    /// @{
    static std::string serializeRecord(const std::string &key,
                                       const std::string &payload,
                                       uint32_t text_version = 2);
    static Result<std::pair<std::string, std::string>>
    parseRecord(const std::string &text);
    /// @}

  private:
    /** The lookup body; counts a miss only when @p count_miss. */
    std::optional<std::string> find(const std::string &key,
                                    bool count_miss);

    /** Insert into the LRU tier, evicting beyond capacity. */
    void remember(const std::string &key, const std::string &payload);

    Options options;
    std::unique_ptr<davf::store::IndexStore> index;

    mutable std::mutex mutex;
    /** Most recent at the front. */
    std::list<std::pair<std::string, std::string>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, std::string>>::iterator>
        lruIndex;
    uint64_t lruBytes = 0; ///< Sum of key+payload sizes in `lru`.
    StoreStats counters;
};

} // namespace davf::service

#endif // DAVF_SERVICE_RESULT_STORE_HH
