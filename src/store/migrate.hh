/**
 * @file
 * Legacy-to-index store migration (`davf_store migrate`).
 *
 * migrateStore() absorbs every legacy per-file record (`r-*.rec`) in a
 * store directory into the indexed tier, preserving record bytes
 * exactly (the segment file stores the same v2 text), then removes the
 * absorbed legacy file. A record from a newer grammar is not damage:
 * it is carried over verbatim under the key hash its file name
 * carries, so the index keeps it for the binary that wrote it and
 * reports it to this one as a future-version miss. Damaged legacy
 * records are quarantined into `<dir>/quarantine/` — never deleted.
 * The pass is idempotent and crash-safe: a record's legacy file is
 * unlinked only after its frame is durable in the segment file, so
 * killing a migration anywhere loses no record: each one sits in the
 * index, in its legacy file, or in both, and a rerun finishes the job.
 * Until it does, ResultStore refuses the directory (legacy files
 * remain).
 *
 * This is the only code that reads a legacy record file.
 *
 * The per-record `index.migrate` crash point makes migration part of
 * the kill-anywhere matrix; `store.index.migrated_records` /
 * `store.index.migrate_remaining` report progress to the obs registry.
 */

#ifndef DAVF_STORE_MIGRATE_HH
#define DAVF_STORE_MIGRATE_HH

#include <cstdint>
#include <string>

namespace davf::store {

/** What one migration pass did. */
struct MigrateReport
{
    uint64_t migrated = 0;    ///< Legacy records absorbed + unlinked.
    uint64_t alreadyIndexed = 0; ///< Skipped: index already serves them.
    uint64_t future = 0;      ///< Newer-grammar records carried verbatim.
    uint64_t quarantined = 0; ///< Damaged legacy records moved aside.
    uint64_t foreign = 0;     ///< Non-record entries left untouched.

    bool clean() const { return true; }
};

/**
 * Migrate the store directory @p dir (see file comment). Creates the
 * indexed tier if absent. Throws DavfError{Io} if the directory (or
 * the index lock) is unusable.
 */
MigrateReport migrateStore(const std::string &dir);

} // namespace davf::store

#endif // DAVF_STORE_MIGRATE_HH
