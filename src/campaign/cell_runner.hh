/**
 * @file
 * The one cell runner: how every DelayAVF and sAVF cell is computed,
 * in every isolation mode, for a campaign and for a service query
 * alike.
 *
 * DelayAVF_d is a sum of independent per-injection-cycle terms, so a
 * cell is its cycles' outcomes, aggregated. runDavfCell():
 *
 *  1. takes the cycles already in the result store (ShardStore);
 *  2. sends the cycles still missing to the ShardDispatcher, if there
 *     is one (supervised worker processes or TCP worker nodes);
 *  3. makes one VulnerabilityEngine::delayAvf() call, which computes
 *     whatever is still missing on the engine's thread pool and
 *     aggregates every outcome in cycle order.
 *
 * Thread mode is the case with no dispatcher. A freshly computed
 * outcome is stored before the caller hears of it. Payloads use the
 * journal's hexfloat token grammar, so a cell built from stored
 * outcomes is bit-identical to a cold one.
 */

#ifndef DAVF_CAMPAIGN_CELL_RUNNER_HH
#define DAVF_CAMPAIGN_CELL_RUNNER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/shard_exchange.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "util/error.hh"

namespace davf {

namespace service {
class ResultStore;
}

/**
 * The content-addressed store key of one shard under one workspace
 * build fingerprint. The spec's sweep list is left out: it changes how
 * a worker computes the shard, not what.
 */
std::string shardStoreKey(const std::string &fingerprint,
                          const ShardSpec &spec);

/**
 * The result store as the runner's cache tier, the one reader and
 * writer of shard outcomes: a payload that fails to parse, trailing
 * tokens included, is a miss; an outcome with an attribution section
 * is written as a v3 record, every other payload as v2. A @p recheck
 * looks up a shard whose miss was already counted, so a miss counts
 * nothing (ResultStore::recheck).
 */
class ShardStore
{
  public:
    /** @p results must outlive this tier. */
    ShardStore(service::ResultStore &the_results, std::string the_fingerprint)
        : results(&the_results), fingerprint(std::move(the_fingerprint))
    {}

    std::string key(const ShardSpec &spec) const
    {
        return shardStoreKey(fingerprint, spec);
    }

    std::optional<InjectionCycleOutcome> findCycle(const ShardSpec &spec,
                                                   bool recheck);
    std::optional<SavfResult> findSavf(const ShardSpec &spec, bool recheck);
    void put(const ShardSpec &spec, const InjectionCycleOutcome &outcome);
    void put(const ShardSpec &spec, const SavfResult &result);

  private:
    service::ResultStore *results;
    std::string fingerprint;
};

/** One cell for the runner. */
struct CellJob
{
    VulnerabilityEngine *engine = nullptr;
    const Structure *structure = nullptr;
    double delay = 0.0; ///< DelayAVF cells: fraction of the period.

    /** The engine configuration; its serialized fields also key the
     *  cell's shards in the store and travel to the dispatcher. */
    SamplingConfig sampling;

    std::vector<double> sweep; ///< For dispatched cycle shards.
    ShardDispatcher *dispatcher = nullptr; ///< Null: in-process only.
    ShardStore *store = nullptr;           ///< Null: no cache tier.

    /** The caller already looked this cell up in the store (counted). */
    bool recheck = false;
};

/** What one cell run produced. */
struct CellRun
{
    bool failed = false;
    ErrorKind failKind = ErrorKind::Internal;
    std::string failReason;
    bool stopped = false; ///< The stop flag interrupted the cell.
    DelayAvfResult davf;  ///< Valid when neither failed nor stopped.
    SavfResult savf;      ///< Likewise, for runSavfCell.
    uint64_t storeHits = 0; ///< Shards taken from the store.
};

/** Adopt into @p completed the stored outcome of every injection cycle
 *  of @p job it lacks; returns how many were adopted. */
uint64_t adoptStoredCycles(const CellJob &job,
                           std::vector<InjectionCycleOutcome> &completed);

/** The stored sAVF outcome of @p job's cell, if any. */
std::optional<SavfResult> storedSavf(const CellJob &job);

/**
 * Run one DelayAVF cell (see file comment). @p progress carries the
 * outcomes the caller already has and the callback each freshly
 * computed outcome is reported to (serialized). A cell whose failure
 * rate crosses SamplingConfig::maxFailureRate, or whose dispatch
 * failed beyond repair, comes back failed; other DavfErrors propagate.
 */
CellRun runDavfCell(const CellJob &job, DelayAvfProgress progress);

/** Run one sAVF cell: the store, else the dispatcher or the engine. */
CellRun runSavfCell(const CellJob &job);

} // namespace davf

#endif // DAVF_CAMPAIGN_CELL_RUNNER_HH
