/**
 * @file
 * The davf_serve query scheduler.
 *
 * Decomposes one client query (structure × delay list [× sAVF]) into
 * the same shard units the process-isolated campaign uses — one
 * DelayAVF injection cycle or one whole sAVF evaluation (core/shard) —
 * and resolves each shard against the persistent result store before
 * ever touching the engine:
 *
 *  - **store hit**: the shard's outcome payload is parsed back from the
 *    journal token grammar; no simulation runs.
 *  - **store miss**: the shard is computed — in-process on the engine's
 *    thread pool, or by the ShardDispatcher the scheduler was given
 *    (davf_serve's Supervisor) — and the fresh outcome is written back
 *    to the store as it completes.
 *
 * Both run through the campaign's cell runner (campaign/cell_runner.hh):
 * one VulnerabilityEngine::delayAvf() call per cell aggregates the
 * stored and fresh outcomes — the proven checkpoint-resume path — so a
 * reply assembled from cached shards is bit-identical to a cold
 * evaluation at any thread or worker count.
 *
 * Concurrency: the engine's delayAvf/delayAvfCycle entry points share
 * mutable snapshot state and must not run concurrently, so one mutex
 * serializes all *compute* (each compute still fans out internally
 * across the engine thread pool). Store hits are served without that
 * lock, so warm queries from many clients proceed in parallel. A miss
 * re-checks the store after acquiring the compute lock: identical
 * shards requested by concurrent clients are therefore computed once —
 * the second client finds them already stored (tallied as
 * inFlightHits, and only there) and only aggregates.
 */

#ifndef DAVF_SERVICE_SCHEDULER_HH
#define DAVF_SERVICE_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/cell_runner.hh"
#include "core/report.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "service/protocol.hh"
#include "service/result_store.hh"
#include "util/stats.hh"

namespace davf::service {

/** Monotonic scheduler counters (store counters live in StoreStats). */
struct SchedulerStats
{
    uint64_t queries = 0;       ///< Queries answered successfully.
    // The three shard tallies are disjoint: each shard a query needs
    // lands in exactly one of them.
    uint64_t shardHits = 0;     ///< Shards found on the first lookup.
    uint64_t inFlightHits = 0;  ///< Misses resolved by another client's
                                ///< concurrent compute of the same shard.
    uint64_t shardsComputed = 0; ///< Shards simulated here.
    uint64_t cancelled = 0;      ///< Queries stopped cooperatively.
};

/** The query scheduler (see file comment). */
class QueryScheduler
{
  public:
    struct Options
    {
        /** Benchmark label stamped into report rows. */
        std::string benchmark = "workload";

        /** Suffix appended to structure labels (e.g. " (ECC)"). */
        std::string structureLabel;

        /** Engine compute threads (0 = hardware concurrency). */
        unsigned threads = 0;

        /**
         * Where misses are computed: null runs them in-process on the
         * engine thread pool. Not owned; must outlive the scheduler.
         * Cancellation takes effect between cells once dispatched.
         */
        ShardDispatcher *dispatcher = nullptr;
    };

    /**
     * @p fingerprint is the workspace build fingerprint the store keys
     * are derived from (Workspace::fingerprint(), or any stable token
     * in tests; shardStoreKey). The engine, registry, and store must
     * outlive this.
     */
    QueryScheduler(VulnerabilityEngine &engine,
                   const StructureRegistry &registry,
                   std::string fingerprint, ResultStore &store,
                   Options options);

    QueryScheduler(const QueryScheduler &) = delete;
    QueryScheduler &operator=(const QueryScheduler &) = delete;

    /** One answered query. */
    struct QueryReply
    {
        /** reportJson() over the query's rows (see core/report). */
        std::string reportJson;

        uint64_t storeHits = 0;   ///< Shards this query took from the store.
        uint64_t storeMisses = 0; ///< Shards this query had to compute.
    };

    /**
     * Answer @p query. @p cancel, when given, stops the evaluation
     * cooperatively between injections (Err{Timeout, "cancelled"}).
     * Unknown structures are Err{NotFound}; out-of-domain delays are
     * Err{OutOfRange}; engine failures surface as their own kinds.
     */
    Result<QueryReply> run(const QuerySpec &query,
                           const std::atomic<bool> *cancel = nullptr);

    /** The store key of @p spec under this scheduler's fingerprint. */
    std::string shardKey(const ShardSpec &spec) const;

    SchedulerStats stats() const;

    /**
     * Scheduler + store counters and the per-stage latency histograms
     * (lookup / compute / aggregate, milliseconds) as one JSON line —
     * the body of the protocol's "ok stats" reply.
     */
    std::string statsJson() const;

  private:
    /** One DelayAVF or sAVF cell: the first store look without the
     *  compute lock, then the runner (and its recheck) under it. */
    Result<CellRun> runCell(CellJob job, bool savf, QueryReply &reply);

    /** Tally @p hits shards taken from the store, on the first look
     *  (shardHits) or on the recheck under the compute lock. */
    void countHits(uint64_t hits, bool recheck, QueryReply &reply);
    void countComputed(QueryReply &reply);

    VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    ResultStore *store;
    ShardStore tier;
    Options options;

    /** Serializes every engine compute (see file comment). */
    std::mutex engineMutex;

    mutable std::mutex statsMutex;
    SchedulerStats counters;
    Histogram lookupMs;    ///< Store-resolution time per cell.
    Histogram computeMs;   ///< Simulation time per cell with misses.
    Histogram aggregateMs; ///< Aggregation-only time per cell.
};

} // namespace davf::service

#endif // DAVF_SERVICE_SCHEDULER_HH
