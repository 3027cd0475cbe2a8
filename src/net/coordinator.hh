/**
 * @file
 * The distributed campaign coordinator: the supervisor's resilience
 * stack (campaign/supervisor.hh) applied to a fleet of remote TCP
 * worker nodes instead of local child processes.
 *
 * Topology: the coordinator owns a listening socket; davf_worker
 * processes connect, handshake (versioned hello carrying the node
 * name and workspace fingerprint — a mismatch is rejected), and join
 * the fleet. Each campaign cell becomes a queue of shard jobs with
 * one dispatcher thread per node. Ownership is strict: job j of a cell
 * goes to the node at rank j mod (live fleet size), the rank being the
 * node's position in the live fleet, recomputed whenever the fleet
 * changes, so a lost node's jobs pass to the survivors. With a stable
 * fleet a node sees every delay of the cycles it owns and its engine's
 * cross-delay sweep caches hit; the price is that a slow node gates
 * its own share of the cell, since idle nodes never steal.
 *
 * Each attempt is one exchangeShard() (campaign/shard_exchange.hh),
 * the same frame conversation the process supervisor runs; this class
 * keeps only the fleet's policy:
 *  - a node whose connection the exchange closed (lost, torn stream,
 *    heartbeat silence, or the shard deadline expiring while it still
 *    heartbeats) is retired from the fleet and its shard re-queued;
 *  - retryable failures (lost node, timeout, unparseable reply) are
 *    re-queued with the shared deterministic-jitter exponential
 *    backoff, up to maxRetries per shard; past that the shard falls
 *    back to **local in-process execution**, so infrastructure
 *    failures never fail a cell;
 *  - a node that keeps failing shards (maxNodeFailures) is
 *    quarantined: disconnected and removed from the fleet;
 *  - when the fleet drains to zero mid-cell, the remaining jobs run
 *    locally — a campaign with no (surviving) workers degrades to
 *    exactly a thread-mode run;
 *  - a deterministic worker-reported error ("err <kind> ...") fails
 *    the cell, as in the other modes — re-dispatching cannot fix it.
 *
 * The coordinator only computes: the cell runner
 * (campaign/cell_runner.hh) takes what the result store already has
 * before a cell reaches it, and writes the fresh outcomes back.
 *
 * Replies carry the exact journal token grammar, and aggregation runs
 * through the checkpoint-resume path, so results are byte-identical
 * to thread/process mode at any node count (docs/DISTRIBUTED.md).
 */

#ifndef DAVF_NET_COORDINATOR_HH
#define DAVF_NET_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/shard_exchange.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "net/frame.hh"

namespace davf::net {

/** Fleet and failure policy for one Coordinator. maxRetries counts
 *  re-dispatches per shard; past it the shard runs locally. */
struct CoordinatorOptions : DispatchPolicy
{
    /** Expected workspace fingerprint; a hello naming another one is
     *  rejected (empty accepts anything — tests only). */
    std::string fingerprint;

    /** Retryable failures before a node is quarantined. */
    unsigned maxNodeFailures = 3;

    /**
     * @name Local execution
     * localCycle/localSavf compute one shard in-process (the graceful
     * degradation path; engine calls are serialized internally by the
     * coordinator).
     */
    /// @{
    std::function<InjectionCycleOutcome(const ShardSpec &)> localCycle;
    std::function<SavfResult(const ShardSpec &)> localSavf;
    /// @}
};

/** The node fleet + dispatch policy (see file comment). */
class Coordinator : public ShardDispatcher
{
  public:
    /** Takes ownership of @p listener and starts accepting nodes. */
    Coordinator(ListenSocket listener, CoordinatorOptions options);
    ~Coordinator() override;

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** The bound port (for --listen HOST:0). */
    uint16_t port() const { return listenPort; }

    /**
     * Block until @p count nodes are connected or @p timeout_ms
     * passes; returns the connected-node count either way.
     */
    size_t waitForNodes(size_t count, double timeout_ms);

    /** Currently connected (non-quarantined) nodes. */
    size_t nodeCount() const;

    CellResult runDavfCell(
        const std::string &structure, double delay_fraction,
        const std::vector<uint64_t> &cycles,
        const SamplingConfig &sampling,
        const std::function<void(const InjectionCycleOutcome &)>
            &on_cycle_done,
        const std::vector<double> &sweep) override;

    CellResult runSavfCell(const std::string &structure,
                           const SamplingConfig &sampling,
                           SavfResult &out) override;

    /**
     * Send quit to every node and **drain** each connection until EOF
     * (within a grace window) before closing, so a quit frame racing
     * an in-flight result is consumed, not reported as a node failure.
     * Called by the destructor; idempotent.
     */
    void shutdown();

  private:
    struct Node;
    struct Job;
    struct CellCtx;

    void acceptLoop();
    void drainNode(const std::shared_ptr<Node> &node, CellCtx &ctx);

    /**
     * Pop the first queued job that @p node owns (job j belongs to rank
     * j mod live fleet size) into @p index. False when none is queued
     * or the node has left the fleet. Caller holds ctx.mutex.
     */
    bool takeOwnedJob(const Node &node, CellCtx &ctx, size_t &index);
    void computeLocally(CellCtx &ctx, Job &job);
    void finishJob(CellCtx &ctx, Job &job);
    CellResult runCell(std::vector<Job> jobs,
                       const std::function<void(Job &)> &deliver);

    /** Healthy-fleet snapshot (for spawning cell dispatchers). */
    std::vector<std::shared_ptr<Node>> fleetSnapshot() const;

    CoordinatorOptions options;
    int listenFd = -1;
    uint16_t listenPort = 0;

    mutable std::mutex fleetMutex;
    std::condition_variable fleetCv;
    std::vector<std::shared_ptr<Node>> fleet;
    uint64_t nextNodeId = 1;

    /** Serializes localCycle/localSavf (one engine, one computation). */
    std::mutex localMutex;

    std::atomic<bool> shuttingDown{false};
    std::thread acceptor;
};

} // namespace davf::net

#endif // DAVF_NET_COORDINATOR_HH
