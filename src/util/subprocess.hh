/**
 * @file
 * Child-process plumbing for the supervised campaign executor.
 *
 * A Subprocess is a fork/exec'd worker wired to the parent by one
 * Unix socketpair: the child's end becomes both its stdin and its
 * stdout (stderr is inherited), the parent's end is a FrameConn
 * (util/frame_conn.hh). Messages travel as length-prefixed frames, and
 * the parent reads them with the same deadline-bounded reader every
 * other frame peer uses: a child that dies mid-frame is a torn frame,
 * never a silent EOF.
 *
 * The parent side decodes exit status vs. termination signal,
 * captures rusage (peak RSS, CPU time) from wait4(2), and can escalate
 * SIGTERM -> SIGKILL on a wedged child. spawn() can apply an
 * address-space rlimit in the child so a leaking worker dies with
 * std::bad_alloc instead of OOM-killing the machine.
 */

#ifndef DAVF_UTIL_SUBPROCESS_HH
#define DAVF_UTIL_SUBPROCESS_HH

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "util/frame_conn.hh"

namespace davf {

/** How Subprocess::spawn sets the child up. */
struct SpawnOptions
{
    /** RLIMIT_AS cap in MiB applied in the child; 0 = unlimited.
     *  Note: incompatible with AddressSanitizer's shadow mappings. */
    size_t memLimitMb = 0;
};

/** Decoded wait4() status plus resource usage. */
struct ExitStatus
{
    bool exited = false;   ///< Normal exit; @c code is valid.
    int code = 0;
    bool signaled = false; ///< Killed by a signal; @c signal is valid.
    int signal = 0;

    long maxRssKb = 0;     ///< Peak resident set (ru_maxrss).
    double userSec = 0.0;  ///< CPU seconds in user mode.
    double sysSec = 0.0;   ///< CPU seconds in kernel mode.

    /** Human-readable one-liner: "exited with code 3" etc. */
    std::string describe() const;
};

/** A supervised child process (see file comment). */
class Subprocess
{
  public:
    Subprocess() = default;
    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    /** SIGKILLs and reaps a still-running child. */
    ~Subprocess();

    /** Absolute path of the running executable (/proc/self/exe). */
    static std::string selfExePath();

    /**
     * Fork/exec @p argv (argv[0] is the executable path; PATH is not
     * searched). Throws DavfError{Io} on failure. The child's stdin and
     * stdout become its end of the socketpair; stderr is inherited.
     */
    void spawn(const std::vector<std::string> &argv,
               const SpawnOptions &options = {});

    /** A child has been spawned and not yet reaped. */
    bool running() const { return childPid > 0 && !status; }

    pid_t pid() const { return childPid; }

    /** The framed connection to the child (open until it is reaped). */
    FrameConn &conn() { return link; }

    /** Half-close the connection: EOF on the child's stdin. */
    void closeWrite();

    /** Blocking reap; returns the decoded status (cached once reaped). */
    ExitStatus wait();

    /**
     * SIGTERM, wait up to @p grace_ms for exit, then SIGKILL and reap.
     * No-op (returns the cached status) if already reaped.
     */
    ExitStatus terminate(double grace_ms);

  private:
    pid_t childPid = -1;
    FrameConn link;
    std::optional<ExitStatus> status;
};

} // namespace davf

#endif // DAVF_UTIL_SUBPROCESS_HH
