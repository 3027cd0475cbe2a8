/**
 * @file
 * davf-bench-e2e harness: times the DelayAVF layers from outside,
 * through their public entry points, and writes the raw samples as one
 * JSON object for run.py to reduce, gate, and report.
 *
 * Repetition mode (one repetition of one workload, in a fresh process):
 *
 *   davf_bench_e2e --workload W --seed N --work DIR --out FILE
 *                  [--traced] [--reference] [--short]
 *                  [--perturb-reference]
 *
 *   W is sweep_thread, sweep_process, sweep_net, or query_mix
 *   (README.md explains each). The repetition builds a service::
 *   Workspace (timed: a set-up sample) and runs the workload's pass on
 *   it once (timed), as a davf_run invocation or a davf_serve start
 *   does. N is the sampling seed of a sweep and the query-sequence
 *   seed of query_mix. --traced switches the obs registry and the span
 *   tracer on and snapshots them around the set-up and the pass.
 *   --reference then computes the correctness reference in thread
 *   mode, untimed: the report of the same sweep, or the davf_run rows
 *   every query_mix reply must equal. --perturb-reference flips one
 *   digit of it, so the gate in run.py must fire. --short shrinks the
 *   sampling and the query pool to a smoke size.
 *
 * Worker modes (spawned by the repetition mode, never by hand):
 *
 *   davf_bench_e2e --worker-shard [--metrics-dir D]
 *       a process-isolation worker serving shards over stdio
 *       (runCampaignWorker), as `davf_run --worker-shard` does;
 *   davf_bench_e2e --net-node HOST:PORT [--metrics-dir D]
 *       a TCP worker node (net::runNetWorker), as davf_worker does.
 *
 *   With --metrics-dir a worker collects metrics and writes its
 *   registry snapshot to D/w-<pid>.json when it is told to quit, so a
 *   traced run sees the engine counters that the stock workers drop.
 *
 * All times are host wall-clock (steady_clock). Nothing here changes
 * what the library computes: the report bytes are the davf_run --json
 * bytes for the same cells.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/supervisor.hh"
#include "core/report.hh"
#include "net/coordinator.hh"
#include "net/frame.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "service/workspace.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/subprocess.hh"

extern char **environ;

using namespace davf;
namespace fs = std::filesystem;

namespace {

constexpr const char *kBenchmark = "popcount";
constexpr unsigned kThreads = 4;
constexpr unsigned kWorkers = 3;
constexpr double kNodeWaitMs = 60000.0;
const std::vector<std::string> kQueryStructures = {"ALU", "Decoder",
                                                   "Regfile"};

/** Everything --short shrinks. */
struct Shape
{
    std::vector<double> delays;
    unsigned sweepCycles;
    size_t sweepWires;
    unsigned queryCycles;
    size_t queryWires;
    /** Query pool: per structure, queries of these delay counts
     *  (disjoint, so they sum to at most delays.size()). */
    std::vector<size_t> queryDelayCounts;
    /** Each pool query is repeated this many times after its first. */
    unsigned queryRepeats;
};

const Shape kFullShape = {{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
                          8, 400, 4, 100, {1, 2, 2, 3}, 3};
const Shape kShortShape = {{0.3, 0.7}, 2, 40, 2, 40, {1, 1}, 1};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    bool traced = false;
    bool reference = false;
    std::string work;
    std::string out;
    bool perturb = false;
    bool shortShape = false;

    bool workerShard = false;
    std::string netNode;
    std::string metricsDir;
};

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

service::WorkspaceSpec
workspaceSpec()
{
    service::WorkspaceSpec spec;
    spec.benchmark = kBenchmark;
    return spec;
}

void
setObservability(bool on)
{
    obs::MetricsRegistry::setEnabled(on);
    obs::Trace::setEnabled(on);
}

std::string
registryJson()
{
    return obs::MetricsRegistry::instance().snapshot().toJson();
}

/** Largest resident set of this process or any reaped descendant. */
long
peakRssKb()
{
    struct rusage self = {}, children = {};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return std::max(self.ru_maxrss, children.ru_maxrss);
}

/** Worker side: write this process's registry snapshot into @p dir. */
void
exportWorkerMetrics(const std::string &dir)
{
    if (dir.empty())
        return;
    writeFileAtomic(dir + "/w-" + std::to_string(::getpid()) + ".json",
                    registryJson() + "\n");
}

int
runShardWorker(const Args &args)
{
    if (!args.metricsDir.empty())
        obs::MetricsRegistry::setEnabled(true);
    service::Workspace workspace(workspaceSpec());
    const int code =
        runCampaignWorker(workspace.engine(), workspace.structures());
    exportWorkerMetrics(args.metricsDir);
    return code;
}

int
runNetNode(const Args &args)
{
    if (!args.metricsDir.empty())
        obs::MetricsRegistry::setEnabled(true);
    service::Workspace workspace(workspaceSpec());
    net::NetWorkerOptions options;
    net::parseHostPort(args.netNode, options.host, options.port);
    options.fingerprint = workspace.fingerprint();
    options.nodeName = "bench-" + std::to_string(::getpid());
    const int code = net::runNetWorker(workspace.engine(),
                                       workspace.structures(), options);
    exportWorkerMetrics(args.metricsDir);
    return code;
}

/** Spawn @p argv with stdout and stderr appended to @p log. */
pid_t
spawnLogged(const std::vector<std::string> &argv, const std::string &log)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    std::vector<char *> raw;
    for (const std::string &arg : argv)
        raw.push_back(const_cast<char *>(arg.c_str()));
    raw.push_back(nullptr);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, raw[0], &actions, nullptr,
                                 raw.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        davf_throw(ErrorKind::Io, "posix_spawn failed: ",
                   std::strerror(rc));
    }
    return pid;
}

/** Reap @p pid; its exit code, or 128 + signal. */
int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + WTERMSIG(status);
}

/** The davf rows of a campaign, as davf_run --json prints them. */
std::string
campaignReport(const CampaignSummary &summary)
{
    std::vector<ReportRow> rows;
    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "davf" || cell.failed)
            continue;
        ReportRow row;
        row.benchmark = kBenchmark;
        row.structure = cell.key.structure;
        row.delayFraction = cell.delay;
        row.davf = cell.davf;
        rows.push_back(std::move(row));
    }
    return reportJson(rows);
}

/** Flip one digit of @p text, so it no longer matches. */
std::string
perturbed(std::string text)
{
    const size_t at = text.find_first_of("0123456789");
    if (at != std::string::npos)
        text[at] = text[at] == '9' ? '8' : static_cast<char>(text[at] + 1);
    return text;
}

/** The timed pass of one repetition and what it produced. */
struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    uint64_t attempted = 0; ///< Cells (sweeps) or queries (query_mix).
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::string report; ///< Sweeps: the davf-report/v1 line.
    /** Sweeps: the thread-mode report for the same seed ("" = none). */
    std::string reference;

    // Process isolation.
    std::string shardCsv;
    uint64_t quarantined = 0;

    // Net isolation.
    size_t nodes = 0;
    double nodeReadyS = 0.0;
    std::vector<int> nodeExits;

    // Query mix: one entry per query, in sequence order.
    struct Query
    {
        double latencyMs = 0.0;
        uint64_t storeMisses = 0; ///< Shards computed for this query.
        bool ok = false;
        bool matches = false;
        std::string reply;
    };
    std::vector<Query> queries;
    std::vector<service::QuerySpec> querySpecs; ///< The sequence sent.
    std::vector<double> storeOpenS;
    std::vector<std::string> schedulerStats; ///< statsJson() per open.

    // Traced passes: registry snapshots before the workspace build,
    // before the pass, and after it.
    std::string registrySetup;
    std::string registryBefore;
    std::string registryAfter;
    std::string workerMetricsDir;
    std::string tracePath;
};

class Bench
{
  public:
    explicit Bench(Args the_args)
        : args(std::move(the_args)),
          shape(args.shortShape ? kShortShape : kFullShape)
    {}

    int run();

  private:
    CampaignOptions sweepOptions(IsolationMode mode) const;
    void sweepPass(Pass &pass);
    void runNetSweep(CampaignOptions &options, Pass &pass);
    void queryPass(Pass &pass);
    std::vector<service::QuerySpec> buildQueries() const;
    void checkQueries(Pass &pass);
    void write(const Pass &pass) const;

    Args args;
    const Shape &shape;
    std::unique_ptr<service::Workspace> workspace;
    double setupS = 0.0;
};

CampaignOptions
Bench::sweepOptions(IsolationMode mode) const
{
    CampaignOptions options;
    options.benchmark = kBenchmark;
    options.structures = {"ALU"};
    if (args.workload == "sweep_thread")
        options.structures.push_back("Decoder");
    options.delays = shape.delays;
    options.sampling.maxInjectionCycles = shape.sweepCycles;
    options.sampling.maxWires = shape.sweepWires;
    options.sampling.maxFlops = 96;
    options.sampling.seed = args.seed;
    options.sampling.threads = kThreads;
    options.isolate = mode;
    return options;
}

void
Bench::runNetSweep(CampaignOptions &options, Pass &pass)
{
    const double listen_start = nowS();
    net::ListenSocket listener = net::listenTcp("127.0.0.1", 0);
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(listener.port);

    std::vector<pid_t> nodes;
    for (unsigned i = 0; i < kWorkers; ++i) {
        std::vector<std::string> argv = {Subprocess::selfExePath(),
                                         "--net-node", endpoint};
        if (pass.traced) {
            argv.push_back("--metrics-dir");
            argv.push_back(pass.workerMetricsDir);
        }
        nodes.push_back(spawnLogged(argv, args.work + "/nodes.log"));
    }

    VulnerabilityEngine &engine = workspace->engine();
    const StructureRegistry &registry = workspace->structures();
    net::CoordinatorOptions net_options;
    net_options.fingerprint = workspace->fingerprint();
    net_options.seed = args.seed;
    net_options.localCycle = [&](const ShardSpec &spec) {
        return engine.delayAvfCycle(*registry.find(spec.structure),
                                    spec.delayFraction, spec.cycle,
                                    spec.sampling, spec.wireBegin,
                                    spec.wireEnd, spec.quarantined);
    };
    net_options.localSavf = [&](const ShardSpec &spec) {
        return engine.savf(*registry.find(spec.structure), spec.sampling);
    };

    auto coordinator = std::make_unique<net::Coordinator>(
        listener, std::move(net_options));
    pass.nodes = coordinator->waitForNodes(kWorkers, kNodeWaitMs);
    pass.nodeReadyS = nowS() - listen_start;
    if (pass.nodes < kWorkers) {
        // A fleet that never assembled is a failed run, not a slow one
        // computed by local fallback.
        pass.failures.push_back("only " + std::to_string(pass.nodes)
                                + " of " + std::to_string(kWorkers)
                                + " net nodes connected");
        pass.failed = pass.attempted = shape.delays.size();
    } else {
        options.dispatcher = coordinator.get();
        Campaign campaign(engine, registry, options);
        const CampaignSummary summary = campaign.run();
        coordinator->shutdown();
        pass.report = campaignReport(summary);
        pass.attempted = summary.cells.size();
        pass.failed = summary.cellsFailed;
    }
    coordinator.reset();

    for (const pid_t pid : nodes) {
        if (pass.nodes < kWorkers)
            ::kill(pid, SIGKILL);
        pass.nodeExits.push_back(reap(pid));
    }
}

void
Bench::sweepPass(Pass &pass)
{
    if (pass.traced) {
        pass.workerMetricsDir = args.work + "/workers";
        fs::create_directories(pass.workerMetricsDir);
    }

    const IsolationMode mode = args.workload == "sweep_process"
                                   ? IsolationMode::Process
                               : args.workload == "sweep_net"
                                   ? IsolationMode::Net
                                   : IsolationMode::Thread;
    CampaignOptions options = sweepOptions(mode);
    if (mode == IsolationMode::Process) {
        SupervisorOptions &sup = options.supervisor;
        sup.workerArgv = {Subprocess::selfExePath(), "--worker-shard"};
        if (pass.traced) {
            sup.workerArgv.push_back("--metrics-dir");
            sup.workerArgv.push_back(pass.workerMetricsDir);
        }
        sup.workers = kWorkers;
        pass.shardCsv = args.work + "/shards.csv";
        sup.metricsCsvPath = pass.shardCsv;
    }

    if (mode == IsolationMode::Net) {
        runNetSweep(options, pass);
        return;
    }
    CampaignSummary summary;
    {
        Campaign campaign(workspace->engine(), workspace->structures(),
                          options);
        summary = campaign.run();
    } // Process mode: the supervisor's workers quit and are reaped here.
    pass.report = campaignReport(summary);
    pass.attempted = summary.cells.size();
    pass.failed = summary.cellsFailed;
    pass.quarantined = summary.quarantined.size();
    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.failed) {
            pass.failures.push_back(cell.key.structure + " d="
                                    + cell.key.delay + ": "
                                    + cell.failReason);
        }
    }
}

std::vector<service::QuerySpec>
Bench::buildQueries() const
{
    // The pool: per structure, one query per queryDelayCounts entry,
    // over that many delays; a structure's queries share no delay, so
    // every seed computes and then serves the same number of cells.
    // The sequence asks every pool query once (in seeded order: the
    // cold phase, all misses), then every pool query queryRepeats more
    // times (in seeded order: the warm phase, all hits).
    std::mt19937_64 rng(args.seed);
    std::vector<service::QuerySpec> pool;
    for (const std::string &structure : kQueryStructures) {
        std::vector<size_t> order(shape.delays.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        auto next = order.begin();
        for (const size_t count : shape.queryDelayCounts) {
            std::vector<size_t> picked(next, next + count);
            next += count;
            std::sort(picked.begin(), picked.end());
            service::QuerySpec query;
            query.workspace = workspaceSpec();
            query.structure = structure;
            for (const size_t i : picked)
                query.delays.push_back(shape.delays[i]);
            query.sampling.maxInjectionCycles = shape.queryCycles;
            query.sampling.maxWires = shape.queryWires;
            query.sampling.maxFlops = 96;
            query.sampling.seed = 1;
            pool.push_back(std::move(query));
        }
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    std::vector<service::QuerySpec> queries = pool;
    std::vector<service::QuerySpec> warm;
    for (unsigned r = 0; r < shape.queryRepeats; ++r)
        warm.insert(warm.end(), pool.begin(), pool.end());
    std::shuffle(warm.begin(), warm.end(), rng);
    queries.insert(queries.end(), warm.begin(), warm.end());
    return queries;
}

void
Bench::checkQueries(Pass &pass)
{
    // The reference: what davf_run --json prints for each structure
    // over every delay at the query sampling (thread mode).
    std::map<std::pair<std::string, double>, ReportRow> rows;
    for (const std::string &structure : kQueryStructures) {
        CampaignOptions options;
        options.benchmark = kBenchmark;
        options.structures = {structure};
        options.delays = shape.delays;
        options.sampling = pass.querySpecs.front().sampling;
        options.sampling.threads = kThreads;
        Campaign campaign(workspace->engine(), workspace->structures(),
                          options);
        const CampaignSummary summary = campaign.run();
        for (size_t i = 0; i < summary.cells.size(); ++i) {
            ReportRow row;
            row.benchmark = kBenchmark;
            row.structure = structure;
            row.delayFraction = summary.cells[i].delay;
            row.davf = summary.cells[i].davf;
            rows[{structure, shape.delays[i]}] = row;
        }
    }
    for (size_t i = 0; i < pass.queries.size(); ++i) {
        Pass::Query &record = pass.queries[i];
        if (!record.ok)
            continue;
        const service::QuerySpec &query = pass.querySpecs[i];
        std::vector<ReportRow> expected_rows;
        for (const double d : query.delays)
            expected_rows.push_back(rows.at({query.structure, d}));
        std::string expected = reportJson(expected_rows);
        if (args.perturb)
            expected = perturbed(expected);
        record.matches = record.reply == expected;
        if (!record.matches) {
            ++pass.failed;
            pass.failures.push_back("query " + std::to_string(i)
                                    + " reply differs from the davf_run "
                                      "rows");
        }
    }
}

void
Bench::queryPass(Pass &pass)
{
    const std::string store_dir = args.work + "/store";
    fs::remove_all(store_dir);

    service::QueryScheduler::Options sched_options;
    sched_options.benchmark = kBenchmark;
    sched_options.threads = kThreads;

    pass.querySpecs = buildQueries();
    const std::vector<service::QuerySpec> &queries = pass.querySpecs;
    std::unique_ptr<service::ResultStore> store;
    std::unique_ptr<service::QueryScheduler> scheduler;
    auto open = [&] {
        const double start = nowS();
        {
            obs::Span span("bench.store_open");
            service::ResultStore::Options store_options;
            store_options.dir = store_dir;
            store = std::make_unique<service::ResultStore>(store_options);
        }
        pass.storeOpenS.push_back(nowS() - start);
        scheduler = std::make_unique<service::QueryScheduler>(
            workspace->engine(), workspace->structures(),
            workspace->fingerprint(), *store, sched_options);
    };
    auto close = [&] {
        pass.schedulerStats.push_back(scheduler->statsJson());
        scheduler.reset();
        store.reset();
    };

    open();
    for (size_t i = 0; i < queries.size(); ++i) {
        if (i == queries.size() / 2) {
            // Restart the service over the same directory: later
            // repeats are served by the disk tier first.
            close();
            open();
        }
        const service::QuerySpec &query = queries[i];
        Pass::Query record;
        const double start = nowS();
        Result<service::QueryScheduler::QueryReply> reply =
            scheduler->run(query);
        record.latencyMs = (nowS() - start) * 1e3;
        record.ok = reply.ok();
        if (reply.ok()) {
            record.storeMisses = reply.value().storeMisses;
            record.reply = std::move(reply.value().reportJson);
        } else {
            ++pass.failed;
            pass.failures.push_back("query " + std::to_string(i) + ": "
                                    + reply.error().what());
        }
        pass.queries.push_back(std::move(record));
    }
    close();
    pass.attempted = queries.size();
    fs::remove_all(store_dir);
}

int
Bench::run()
{
    fs::create_directories(args.work);
    Pass pass;
    pass.traced = args.traced;
    if (pass.traced) {
        setObservability(true);
        pass.registrySetup = registryJson();
    }

    const double setup_start = nowS();
    {
        obs::Span span("bench.workspace");
        workspace = std::make_unique<service::Workspace>(workspaceSpec());
    }
    setupS = nowS() - setup_start;

    if (pass.traced)
        pass.registryBefore = registryJson();
    const double start = nowS();
    {
        obs::Span span("bench.pass");
        if (args.workload == "query_mix")
            queryPass(pass);
        else
            sweepPass(pass);
    }
    pass.wallS = nowS() - start;

    if (pass.traced) {
        pass.registryAfter = registryJson();
        setObservability(false);
        pass.tracePath = args.work + "/trace.json";
        writeFileAtomic(pass.tracePath, obs::Trace::toChromeJson());
    }

    // The correctness reference, computed untimed after the pass (so
    // the pass never runs on a warmed workspace) with observability off.
    if (args.reference) {
        if (args.workload == "query_mix") {
            checkQueries(pass);
        } else {
            Campaign campaign(workspace->engine(), workspace->structures(),
                              sweepOptions(IsolationMode::Thread));
            pass.reference = campaignReport(campaign.run());
            if (args.perturb)
                pass.reference = perturbed(pass.reference);
        }
    }
    write(pass);
    return 0;
}

void
Bench::write(const Pass &pass) const
{
    std::ostringstream os;
    os << "{\"schema\":\"davf-bench-e2e-rep/v1\",\"workload\":"
       << jsonString(args.workload) << ",\"setup_s\":" << num(setupS)
       << ",\"peak_rss_kb\":" << peakRssKb() << ",\"pass\":";
    os << "{\"traced\":" << (pass.traced ? 1 : 0)
       << ",\"seed\":" << args.seed
       << ",\"wall_s\":" << num(pass.wallS)
       << ",\"attempted\":" << pass.attempted
       << ",\"failed\":" << pass.failed << ",\"failures\":[";
    for (size_t i = 0; i < pass.failures.size(); ++i)
        os << (i ? "," : "") << jsonString(pass.failures[i]);
    os << "],\"report\":" << jsonString(pass.report)
       << ",\"reference\":" << jsonString(pass.reference)
       << ",\"shard_csv\":" << jsonString(pass.shardCsv)
       << ",\"quarantined\":" << pass.quarantined
       << ",\"nodes\":" << pass.nodes
       << ",\"node_ready_s\":" << num(pass.nodeReadyS)
       << ",\"node_exits\":[";
    for (size_t i = 0; i < pass.nodeExits.size(); ++i)
        os << (i ? "," : "") << pass.nodeExits[i];
    os << "],\"store_open_s\":[";
    for (size_t i = 0; i < pass.storeOpenS.size(); ++i)
        os << (i ? "," : "") << num(pass.storeOpenS[i]);
    os << "],\"scheduler_stats\":[";
    for (size_t i = 0; i < pass.schedulerStats.size(); ++i)
        os << (i ? "," : "") << pass.schedulerStats[i];
    os << "],\"queries\":[";
    for (size_t i = 0; i < pass.queries.size(); ++i) {
        const Pass::Query &q = pass.queries[i];
        os << (i ? "," : "") << "{\"latency_ms\":" << num(q.latencyMs)
           << ",\"store_misses\":" << q.storeMisses
           << ",\"ok\":" << (q.ok ? 1 : 0)
           << ",\"matches\":" << (q.matches ? 1 : 0) << "}";
    }
    os << "],\"worker_metrics_dir\":"
       << jsonString(pass.workerMetricsDir)
       << ",\"trace_path\":" << jsonString(pass.tracePath);
    if (pass.traced) {
        os << ",\"registry_setup\":" << pass.registrySetup
           << ",\"registry_before\":" << pass.registryBefore
           << ",\"registry_after\":" << pass.registryAfter;
    }
    os << "}}\n";
    writeFileAtomic(args.out, os.str());
}

[[noreturn]] void
usage(const std::string &detail)
{
    std::fprintf(stderr,
                 "usage: davf_bench_e2e --workload W --seed N --work DIR"
                 " --out FILE\n"
                 "                      [--traced] [--reference] [--short]"
                 " [--perturb-reference]\n"
                 "error: %s\n",
                 detail.c_str());
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args args;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string(argv[i]) + " expects a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            args.workload = need(i);
        } else if (arg == "--seed") {
            args.seed = parseU64Strict(need(i), arg);
        } else if (arg == "--traced") {
            args.traced = true;
        } else if (arg == "--reference") {
            args.reference = true;
        } else if (arg == "--work") {
            args.work = need(i);
        } else if (arg == "--out") {
            args.out = need(i);
        } else if (arg == "--short") {
            args.shortShape = true;
        } else if (arg == "--perturb-reference") {
            args.perturb = true;
        } else if (arg == "--worker-shard") {
            args.workerShard = true;
        } else if (arg == "--net-node") {
            args.netNode = need(i);
        } else if (arg == "--metrics-dir") {
            args.metricsDir = need(i);
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }
    if (args.workerShard || !args.netNode.empty())
        return args;
    if (args.workload != "sweep_thread" && args.workload != "sweep_process"
        && args.workload != "sweep_net" && args.workload != "query_mix") {
        usage("unknown --workload '" + args.workload + "'");
    }
    if (args.work.empty() || args.out.empty())
        usage("--work and --out are required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] {
        const Args args = parse(argc, argv);
        if (args.workerShard)
            return runShardWorker(args);
        if (!args.netNode.empty())
            return runNetNode(args);
        return Bench(args).run();
    });
}
