/**
 * @file
 * Supervised, process-isolated campaign execution.
 *
 * Thread-mode campaigns share one address space with the engine: a
 * crash, a runaway allocation, or a hard hang inside a single injection
 * takes the whole sweep down. Process isolation puts that blast radius
 * inside disposable workers:
 *
 *  - the campaign re-executes its own binary in a hidden worker mode
 *    (the worker builds the same engine, then serves shards over a
 *    socketpair with the shared shard exchange,
 *    campaign/shard_exchange.hh);
 *  - each shard (one injection cycle, or one whole sAVF evaluation) is
 *    dispatched to a pool of N workers; a worker that crashes, hangs
 *    past its deadline, or trips its memory cap is killed and respawned,
 *    and a worker that hung up is classified by its exit status;
 *  - failed shards are retried with exponential backoff; a shard that
 *    keeps crashing is **bisected** over its sampled-wire index range
 *    down to the single offending injection, which is recorded as a
 *    quarantine record and excluded (tallied as skipped with reason
 *    "quarantined", leaving the AVF denominators) while the rest of the
 *    cell completes;
 *  - shard replies carry the exact journal token grammar, so results
 *    aggregate bit-identically to thread mode at any worker count;
 *  - it is a ShardDispatcher: the cell runner (cell_runner.hh) hands
 *    it the cycles a cell still needs, for a campaign and for
 *    `davf_serve --isolate process` alike.
 *
 * See docs/ROBUSTNESS.md for the shard exchange and the quarantine
 * record format.
 */

#ifndef DAVF_CAMPAIGN_SUPERVISOR_HH
#define DAVF_CAMPAIGN_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/shard_exchange.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "util/error.hh"
#include "util/subprocess.hh"

namespace davf {

/** How workers are run and how their failures are handled. */
struct SupervisorOptions : DispatchPolicy
{
    /**
     * Command line that starts one worker process (argv[0] is the
     * executable path; typically Subprocess::selfExePath() plus the
     * original arguments plus the hidden worker flag).
     */
    std::vector<std::string> workerArgv;

    /** Worker process pool size. */
    unsigned workers = 1;

    /** Budget for a fresh worker's hello (covers engine build). */
    double startTimeoutMs = 120000.0;

    /** RLIMIT_AS cap per worker in MiB; 0 = unlimited. */
    uint64_t workerMemMb = 0;

    /** Directory for quarantine records; empty keeps them in memory. */
    std::string quarantineDir;

    /** Most injections quarantined per cell before giving up on it. */
    unsigned maxQuarantinePerCell = 4;

    /** Per-attempt metrics CSV (appended); empty disables. */
    std::string metricsCsvPath;

    /** Campaign identity stamped into quarantine records; the only
     *  records loaded from quarantineDir are those carrying it. */
    std::string configHash;
    std::string benchmark;
};

/**
 * One quarantined injection: everything needed to reproduce it in
 * isolation (the whole engine configuration is implied by configHash;
 * the record pins the cell and the exact sampled-wire index).
 */
struct QuarantineRecord
{
    std::string configHash;
    std::string benchmark;
    std::string structure;
    double delayFraction = 0.0;
    uint64_t cycle = 0;
    size_t wireIndex = 0; ///< Index into the sampled-wire order.
    WireId wire = 0;      ///< The underlying wire, for reproduction.
    uint64_t seed = 0;    ///< Sampling seed the index is relative to.
    std::string reason;   ///< e.g. "killed by signal 6 (Aborted)".

    bool operator==(const QuarantineRecord &) const = default;
};

/** One-line text form (the "davf-quarantine v1" record). */
std::string serializeQuarantineRecord(const QuarantineRecord &record);

/** Parse a serializeQuarantineRecord() line; malformed input is Err. */
Result<QuarantineRecord> parseQuarantineRecord(const std::string &text);

/** Write @p record as a uniquely named file under @p dir. */
void saveQuarantineRecord(const std::string &dir,
                          const QuarantineRecord &record);

/** Load every parseable record under @p dir (missing dir = empty). */
std::vector<QuarantineRecord>
loadQuarantineRecords(const std::string &dir);

/** The worker pool + failure policy (see file comment). */
class Supervisor : public ShardDispatcher
{
  public:
    /** Loads the quarantine records of options.configHash; @p engine
     *  and @p registry (which must outlive it) give the sampled-wire
     *  order their indices refer to. */
    Supervisor(SupervisorOptions options, const VulnerabilityEngine &engine,
               const StructureRegistry &registry);
    ~Supervisor() override;

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Cycle index j of @p cycles always goes to worker slot j mod
     *  pool, so each worker sees every delay of the cycles it owns. */
    CellResult runDavfCell(
        const std::string &structure, double delay_fraction,
        const std::vector<uint64_t> &cycles,
        const SamplingConfig &sampling,
        const std::function<void(const InjectionCycleOutcome &)>
            &on_cycle_done,
        const std::vector<double> &sweep) override;

    /** Compute one sAVF cell in a worker (retried, never bisected). */
    CellResult runSavfCell(const std::string &structure,
                           const SamplingConfig &sampling,
                           SavfResult &out) override;

    /** The injections quarantined so far (persisted when
     *  quarantineDir is set; excluded from the next run, since a
     *  campaign computes each (structure, delay) cell once). */
    const std::vector<QuarantineRecord> &quarantined() const
    {
        return written;
    }

    /** Shut every worker down (quit frame, then escalating kill). */
    void shutdown();

  private:
    struct Slot;      // One worker process and its state.
    struct CellState; // Shared per-cell dispatch bookkeeping.
    using Attempt = ShardAttempt;

    void ensureWorker(Slot &slot);
    /** Reap the slot's worker (SIGTERM, then SIGKILL after the grace). */
    ExitStatus retireWorker(Slot &slot, double grace_ms);
    Attempt dispatchOnce(Slot &slot, const ShardSpec &spec);
    Attempt dispatchWithRetries(Slot &slot, const ShardSpec &spec);
    void recordMetrics(const Slot &slot, const ShardSpec &spec,
                       unsigned attempt, const Attempt &outcome);

    /**
     * Narrow a persistently failing cycle shard to single offending
     * sampled-wire indices, quarantining up to the per-cell budget.
     * Returns the final full-range attempt (success, or the failure
     * that exhausted the budget).
     */
    Attempt bisectAndQuarantine(Slot &slot, ShardSpec spec,
                                const std::vector<WireId> &wires,
                                CellState &cell);

    SupervisorOptions options;
    const VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    std::vector<std::unique_ptr<Slot>> slots;
    std::mutex metricsMutex;
    std::vector<QuarantineRecord> known;   ///< Loaded at construction.
    std::vector<QuarantineRecord> written; ///< Quarantined this run.
};

/**
 * The worker side: say hello, then serveShards() on the socketpair
 * the supervisor made stdin and stdout, until EOF or a quit frame.
 * Called by tools after building the engine when the hidden worker
 * flag is present. Returns the process exit code.
 */
int runCampaignWorker(VulnerabilityEngine &engine,
                      const StructureRegistry &registry);

} // namespace davf

#endif // DAVF_CAMPAIGN_SUPERVISOR_HH
