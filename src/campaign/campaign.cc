#include "campaign.hh"

#include <cstdlib>
#include <sstream>

#include "core/report.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace davf {

namespace {

/** Campaign metric handles (docs/OBSERVABILITY.md). */
struct CampaignMetrics
{
    obs::Counter cellsComputed{"campaign.cells_computed"};
    obs::Counter cellsFromCheckpoint{"campaign.cells_from_checkpoint"};
    obs::Counter cellsFailed{"campaign.cells_failed"};
    obs::Counter checkpointSaves{"campaign.checkpoint_saves"};
    obs::Counter checkpointWriteFailures{
        "campaign.checkpoint_write_failures"};
    obs::Counter csvFlushes{"campaign.csv_flushes"};
    obs::Counter cellNs{"campaign.time.cell_ns"};
    obs::Counter checkpointNs{"campaign.time.checkpoint_ns"};
};

CampaignMetrics &
campaignMetrics()
{
    static CampaignMetrics *const metrics = new CampaignMetrics();
    return *metrics;
}

/** FNV-1a 64, printed as hex: the journal's config fingerprint. */
std::string
fnv1aHex(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    std::ostringstream os;
    os << std::hex << hash;
    return os.str();
}

/** A journaled cell as the summary reports it. */
CampaignCellResult
summaryCell(const CheckpointCell &journaled, bool from_checkpoint)
{
    CampaignCellResult cell;
    cell.key = journaled.key;
    cell.delay = std::strtod(journaled.key.delay.c_str(), nullptr);
    cell.fromCheckpoint = from_checkpoint;
    cell.failed = journaled.failed;
    cell.failReason = journaled.failReason;
    cell.davf = journaled.davf;
    cell.savf = journaled.savf;
    return cell;
}

} // namespace

std::string
campaignConfigHash(const CampaignOptions &options)
{
    std::ostringstream os;
    os << "benchmark=" << options.benchmark << ";structures=";
    for (const std::string &name : options.structures)
        os << name << ',';
    os << ";delays=";
    for (double d : options.delays)
        os << canonicalDelay(d) << ',';
    os << ";savf=" << (options.runSavf ? 1 : 0)
       << ";cycleFraction=" << canonicalDelay(options.sampling.cycleFraction)
       << ";maxInjectionCycles=" << options.sampling.maxInjectionCycles
       << ";maxWires=" << options.sampling.maxWires
       << ";maxFlops=" << options.sampling.maxFlops
       << ";seed=" << options.sampling.seed
       << ";watchdogSlack=" << options.sampling.watchdogSlack;
    // Appended only when enabled: attribution-off hashes must match
    // journals written before the flag existed so they stay resumable.
    if (options.sampling.attribution)
        os << ";attr=1";
    return fnv1aHex(os.str());
}

Campaign::Campaign(VulnerabilityEngine &the_engine,
                   const StructureRegistry &structures,
                   CampaignOptions the_options)
    : engine(&the_engine), registry(&structures),
      options(std::move(the_options))
{
    journal.configHash = campaignConfigHash(options);
}

void
Campaign::save() const
{
    if (options.checkpointPath.empty())
        return;
    const obs::Span span("campaign.checkpoint",
                         &campaignMetrics().checkpointNs);
    // A checkpoint is a convenience, not a result: if the disk fills
    // (or an armed crash point throws) mid-sweep, losing checkpoint
    // freshness must not lose the sweep. The atomic write discipline
    // guarantees the previous journal survives the failed save, so a
    // later resume still works from the last good state.
    try {
        saveCheckpoint(options.checkpointPath, journal);
    } catch (const DavfError &error) {
        if (error.kind() != ErrorKind::Io)
            throw;
        campaignMetrics().checkpointWriteFailures.add(1);
        davf_warn("checkpoint save to '", options.checkpointPath,
                  "' failed (campaign continues): ", error.what());
        return;
    }
    campaignMetrics().checkpointSaves.add(1);
    if (options.onCheckpointSaved)
        options.onCheckpointSaved();
}

void
Campaign::flushCsv(const CampaignSummary &summary) const
{
    if (options.csvPath.empty())
        return;
    campaignMetrics().csvFlushes.add(1);
    std::ostringstream os;
    std::ostringstream attr_os;
    os << delayAvfCsvHeader() << '\n';
    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "davf" || cell.failed)
            continue;
        const std::string label =
            cell.key.structure + options.structureLabel;
        os << delayAvfCsvRow(cell.key.benchmark, label, cell.delay,
                             cell.davf)
           << '\n';
        attr_os << attributionCsvRows(cell.key.benchmark, label,
                                      cell.delay, cell.davf);
    }
    writeFileAtomic(options.csvPath, os.str());
    // The per-instruction attribution table is a differently-shaped
    // relation, so it goes to a sibling file rather than a second
    // header block that would break naive CSV readers.
    if (!attr_os.str().empty()) {
        writeFileAtomic(options.csvPath + ".attr",
                        attributionCsvHeader() + "\n" + attr_os.str());
    }
}

CampaignSummary
Campaign::run()
{
    // Resolve structures up front: an unknown name is a user error that
    // should fail the campaign before any simulation time is spent.
    std::vector<const Structure *> resolved;
    for (const std::string &name : options.structures) {
        const Structure *structure = registry->find(name);
        if (!structure) {
            davf_throw(ErrorKind::NotFound, "unknown structure '", name,
                       "'");
        }
        resolved.push_back(structure);
    }

    if (options.resume) {
        if (options.checkpointPath.empty()) {
            davf_throw(ErrorKind::BadArgument,
                       "resume requested without a checkpoint path");
        }
        // Lenient about a torn final line only: the journal is written
        // atomically, so a damaged tail means the file was copied or
        // the filesystem crashed mid-write — losing that one record
        // (it is re-simulated) beats refusing to resume.
        CheckpointLoadStats stats;
        Result<Checkpoint> loaded =
            loadCheckpoint(options.checkpointPath, &stats);
        if (!loaded)
            throw loaded.error();
        if (stats.truncatedTail) {
            davf_warn("checkpoint '", options.checkpointPath,
                      "': dropped torn final line \"",
                      stats.droppedLine.substr(0, 80),
                      "\"; its record will be recomputed");
        } else if (stats.missingEnd) {
            davf_warn("checkpoint '", options.checkpointPath,
                      "': missing end record (truncated write?); "
                      "resuming from the readable prefix");
        }
        if (loaded.value().configHash != journal.configHash) {
            davf_throw(ErrorKind::BadArgument,
                       "checkpoint '", options.checkpointPath,
                       "' was written by a different campaign "
                       "configuration (hash ",
                       loaded.value().configHash, ", expected ",
                       journal.configHash, ")");
        }
        journal = std::move(loaded.value());
    }

    // The cell schedule, in deterministic order.
    struct PlannedCell
    {
        CheckpointKey key;
        const Structure *structure;
        double delay;
    };
    std::vector<PlannedCell> plan;
    for (size_t s = 0; s < resolved.size(); ++s) {
        for (double d : options.delays) {
            plan.push_back({{"davf", options.benchmark,
                             options.structures[s], canonicalDelay(d)},
                            resolved[s], d});
        }
        if (options.runSavf) {
            plan.push_back({{"savf", options.benchmark,
                             options.structures[s],
                             canonicalDelay(0.0)},
                            resolved[s], 0.0});
        }
    }

    auto stop_requested = [&]() {
        return options.stopFlag
            && options.stopFlag->load(std::memory_order_relaxed);
    };

    // The one place the isolation mode matters: which dispatcher gets
    // the cycles that neither the journal nor the store has. Thread
    // mode has none; the engine computes them in-process.
    ShardDispatcher *dispatcher = nullptr;
    switch (options.isolate) {
      case IsolationMode::Thread:
        break;
      case IsolationMode::Process: {
        SupervisorOptions sup = options.supervisor;
        sup.configHash = journal.configHash;
        sup.benchmark = options.benchmark;
        sup.seed = options.sampling.seed;
        sup.stopFlag = options.stopFlag;
        supervisor =
            std::make_unique<Supervisor>(std::move(sup), *engine, *registry);
        dispatcher = supervisor.get();
        break;
      }
      case IsolationMode::Net:
        davf_assert(options.dispatcher != nullptr,
                    "IsolationMode::Net needs a ShardDispatcher");
        dispatcher = options.dispatcher;
        break;
    }

    // A campaign sweeps every structure across the same delay list, so
    // the engine can reuse per-cycle golden context and verdicts across
    // adjacent delay values (docs/PERFORMANCE.md). Bit-identical by
    // construction; the guard keeps the caches from outliving the run.
    // Process and net workers get the list in every cycle shard and
    // keep their own sweep (serveShards).
    engine->beginDelaySweep(options.delays);
    struct SweepGuard {
        VulnerabilityEngine *engine;
        ~SweepGuard() { engine->endDelaySweep(); }
    } sweep_guard{engine};

    CampaignSummary summary;
    for (const PlannedCell &planned : plan) {
        // Adopt journaled cells verbatim: this is what makes a resumed
        // campaign bit-identical to an uninterrupted one.
        if (const CheckpointCell *cached = journal.find(planned.key)) {
            summary.cells.push_back(summaryCell(*cached, true));
            ++summary.cellsFromCheckpoint;
            campaignMetrics().cellsFromCheckpoint.add(1);
            if (cached->failed)
                ++summary.cellsFailed;
            continue;
        }

        if (stop_requested()) {
            summary.interrupted = true;
            save();
            break;
        }

        const obs::Span cell_span("campaign.cell",
                                  &campaignMetrics().cellNs);

        CellJob job;
        job.engine = engine;
        job.structure = planned.structure;
        job.delay = planned.delay;
        job.sampling = options.sampling;
        job.sampling.stopFlag = options.stopFlag;
        job.sampling.injectionTimeoutMs = options.injectionTimeoutMs;
        job.sampling.maxFailureRate = options.maxFailureRate;
        job.sweep = options.delays;
        job.dispatcher = dispatcher;
        job.store = options.store;

        CellRun run;
        if (planned.key.kind == "savf") {
            run = runSavfCell(job);
        } else {
            DelayAvfProgress progress;
            if (journal.hasPartial
                && journal.partialKey == planned.key) {
                progress.completed = journal.partialCycles;
            }
            // Journal every completed injection cycle: an interruption
            // (even SIGKILL) loses at most one cycle of work. Calls are
            // serialized by the runner.
            progress.onCycleDone =
                [&](const InjectionCycleOutcome &outcome) {
                    if (!journal.hasPartial
                        || !(journal.partialKey == planned.key)) {
                        journal.hasPartial = true;
                        journal.partialKey = planned.key;
                        journal.partialCycles.clear();
                    }
                    for (const InjectionCycleOutcome &have :
                         journal.partialCycles) {
                        if (have.cycle == outcome.cycle)
                            return;
                    }
                    journal.partialCycles.push_back(outcome);
                    save();
                };
            run = runDavfCell(job, std::move(progress));
        }

        if (run.stopped) {
            // Completed cycles are already journaled; save once more
            // and stop cleanly (the CSV is flushed below).
            summary.interrupted = true;
            save();
            break;
        }

        // The cell is final (completed or failed): promote it to the
        // journal and drop any partial progress it had.
        CheckpointCell record;
        record.key = planned.key;
        record.failed = run.failed;
        record.failReason = run.failReason;
        record.davf = std::move(run.davf);
        record.savf = std::move(run.savf);
        summary.cells.push_back(summaryCell(record, false));
        journal.cells.push_back(std::move(record));
        if (journal.hasPartial && journal.partialKey == planned.key) {
            journal.hasPartial = false;
            journal.partialCycles.clear();
        }

        if (run.failed) {
            ++summary.cellsFailed;
            campaignMetrics().cellsFailed.add(1);
        }
        ++summary.cellsComputed;
        campaignMetrics().cellsComputed.add(1);

        save();
        flushCsv(summary);
    }

    if (supervisor)
        summary.quarantined = supervisor->quarantined();
    flushCsv(summary);
    return summary;
}

} // namespace davf
