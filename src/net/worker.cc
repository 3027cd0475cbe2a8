#include "worker.hh"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "campaign/shard_exchange.hh"
#include "net/frame.hh"
#include "net/netfault.hh"

namespace davf::net {

namespace {

/** Keep heartbeating forever: the armed "stall" netfault. Ends when
 *  the coordinator gives up and closes the connection. */
[[noreturn]] void
stallForever(FrameConn &conn)
{
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        try {
            conn.send("hb");
        } catch (const DavfError &) {
            std::_Exit(1); // Quarantined by the coordinator; done.
        }
    }
}

} // namespace

int
runNetWorker(VulnerabilityEngine &engine,
             const StructureRegistry &registry,
             const NetWorkerOptions &options)
{
    // A vanished coordinator surfaces as EPIPE on write, not a
    // process-fatal SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    const std::string node = options.nodeName.empty()
        ? "node-" + std::to_string(::getpid())
        : options.nodeName;

    FrameConn conn(connectTcpRetry(options.host, options.port,
                                   options.connectTimeoutMs,
                                   options.connectRetries,
                                   options.backoffBaseMs));
    try {
        conn.send(makeHello(node, options.fingerprint));
        std::string payload;
        const FrameConn::ReadStatus hs = conn.read(payload, 30000.0);
        if (hs != FrameConn::ReadStatus::Frame) {
            std::fprintf(stderr,
                         "net worker %s: no handshake reply\n",
                         node.c_str());
            return 1;
        }
        std::string reason;
        Result<bool> welcome = parseHandshakeReply(payload, reason);
        if (!welcome)
            throw welcome.error();
        if (!welcome.value()) {
            std::fprintf(stderr, "net worker %s: rejected: %s\n",
                         node.c_str(), reason.c_str());
            return 2;
        }

        // DAVF_TEST_NETFAULT: at most one shard is faulted per process.
        bool faulted = false;
        ServeHooks hooks;
        hooks.beforeShard = [&](const ShardSpec &spec) {
            faulted = netFaultFires(node, spec.cycle);
            const NetFaultKind kind = armedNetFault().kind;
            if (faulted && kind == NetFaultKind::Disconnect) {
                std::fprintf(stderr,
                             "net worker %s: netfault disconnect\n",
                             node.c_str());
                return false;
            }
            if (faulted && kind == NetFaultKind::Stall) {
                std::fprintf(stderr, "net worker %s: netfault stall\n",
                             node.c_str());
                stallForever(conn);
            }
            return true;
        };
        hooks.beforeReply = [&](std::string &reply) {
            const NetFaultKind kind = armedNetFault().kind;
            if (faulted && kind == NetFaultKind::Drop) {
                std::fprintf(stderr, "net worker %s: netfault drop\n",
                             node.c_str());
                return false; // Computed, never sent; go silent.
            }
            if (faulted && kind == NetFaultKind::Garble)
                reply = "ok davf !garbled-by-netfault!";
            return true;
        };

        const ServeEnd end = serveShards(engine, registry, conn, hooks);
        if (end == ServeEnd::PeerClosed) {
            std::fprintf(stderr, "net worker %s: coordinator vanished\n",
                         node.c_str());
        }
        return end == ServeEnd::Quit ? 0 : 1;
    } catch (const DavfError &error) {
        std::fprintf(stderr, "net worker %s: fatal: %s\n", node.c_str(),
                     error.what());
        return 1;
    }
}

} // namespace davf::net
