/**
 * @file
 * The davf_serve client/server protocol.
 *
 * Transport: a Unix-domain stream socket carrying the same 4-byte
 * little-endian length-prefixed frames as the campaign shard exchange
 * (util/frame_conn.hh's writeFrameFd/readFrameFd work on any fd), so a
 * reader never sees a torn message.
 *
 * Frame grammar (payloads are single-line text; see docs/SERVICE.md):
 *
 *   client -> server
 *     "query <query-spec>"   evaluate a DelayAVF/sAVF query
 *     "cancel"               cooperatively stop this connection's
 *                            in-flight query
 *     "stats"                report store/scheduler counters
 *     "quit"                 close the connection
 *
 *   server -> client
 *     "ok report <json>"     the query's structured report
 *                            (core/report reportJson — byte-identical
 *                            to `davf_run --json` for the same query)
 *     "ok stats <json>"      QueryScheduler::statsJson()
 *     "ok bye"               quit acknowledged
 *     "err <kind> <message>" recoverable failure (errorKindName text)
 *
 * A query spec names the workspace (benchmark, ECC, period mode), the
 * structure, the delay list, the sAVF switch, and the sampling knobs —
 * everything that affects results, nothing operational (threads,
 * paths), mirroring the campaign config-hash discipline.
 */

#ifndef DAVF_SERVICE_PROTOCOL_HH
#define DAVF_SERVICE_PROTOCOL_HH

#include <string>
#include <vector>

#include "core/vulnerability.hh"
#include "service/workspace.hh"
#include "util/error.hh"

namespace davf::service {

/** One client query: a (structure × delays [× sAVF]) evaluation. */
struct QuerySpec
{
    WorkspaceSpec workspace;
    std::string structure = "ALU";
    std::vector<double> delays;
    bool runSavf = false;

    /** Engine sampling; threads/stopFlag are server-managed. */
    SamplingConfig sampling;
};

/** Canonical one-line text form of @p query. */
std::string serializeQuerySpec(const QuerySpec &query);

/** Parse a serializeQuerySpec() line; malformed input is an Err. */
Result<QuerySpec> parseQuerySpec(const std::string &text);

/** A decoded client frame. */
struct ClientFrame
{
    enum class Verb : uint8_t { Query, Cancel, Stats, Quit };

    Verb verb = Verb::Quit;
    QuerySpec query; ///< Valid for Verb::Query.
};

/** Frame text for a query. */
std::string makeQueryFrame(const QuerySpec &query);

/** Parse one client frame payload; malformed input is an Err. */
Result<ClientFrame> parseClientFrame(const std::string &payload);

/** A decoded server reply. */
struct ServerReply
{
    bool ok = false;
    std::string tag;       ///< "report", "stats", or "bye" when ok.
    std::string body;      ///< Report/stats JSON when ok.
    std::string errorKind; ///< errorKindName text when !ok.
    std::string message;   ///< Error detail when !ok.
};

std::string serializeServerReply(const ServerReply &reply);

/** Parse one server reply payload; malformed input is an Err. */
Result<ServerReply> parseServerReply(const std::string &payload);

/**
 * @name Unix-domain socket plumbing
 * Both throw DavfError{Io} on failure and return an owned fd.
 */
/// @{

/** Bind + listen on @p path (an existing socket file is replaced). */
int listenUnix(const std::string &path);

/** Connect to the server at @p path. */
int connectUnix(const std::string &path);

/// @}

} // namespace davf::service

#endif // DAVF_SERVICE_PROTOCOL_HH
