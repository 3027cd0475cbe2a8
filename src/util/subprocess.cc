#include "subprocess.hh"

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace davf {

namespace {

void
decodeRusage(const struct rusage &ru, ExitStatus &status)
{
    status.maxRssKb = ru.ru_maxrss;
    status.userSec = static_cast<double>(ru.ru_utime.tv_sec)
        + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    status.sysSec = static_cast<double>(ru.ru_stime.tv_sec)
        + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

ExitStatus
decodeWait(int wstatus, const struct rusage &ru)
{
    ExitStatus status;
    if (WIFEXITED(wstatus)) {
        status.exited = true;
        status.code = WEXITSTATUS(wstatus);
    } else if (WIFSIGNALED(wstatus)) {
        status.signaled = true;
        status.signal = WTERMSIG(wstatus);
    }
    decodeRusage(ru, status);
    return status;
}

} // namespace

std::string
ExitStatus::describe() const
{
    if (exited)
        return "exited with code " + std::to_string(code);
    if (signaled) {
        const char *name = ::strsignal(signal);
        return "killed by signal " + std::to_string(signal) + " ("
            + (name ? name : "?") + ")";
    }
    return "in unknown state";
}

Subprocess::~Subprocess()
{
    if (running()) {
        ::kill(childPid, SIGKILL);
        wait();
    }
}

std::string
Subprocess::selfExePath()
{
    char buffer[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
    if (n <= 0) {
        davf_throw(ErrorKind::Io, "cannot resolve /proc/self/exe: ",
                   std::strerror(errno));
    }
    return std::string(buffer, static_cast<size_t>(n));
}

void
Subprocess::spawn(const std::vector<std::string> &argv,
                  const SpawnOptions &options)
{
    davf_assert(!running(), "spawn() while a child is still running");
    davf_assert(!argv.empty(), "spawn() needs an argv[0]");
    link.close();
    status.reset();

    int pair[2]; // [0] parent end, [1] child stdin + stdout
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
        davf_throw(ErrorKind::Io, "socketpair failed: ",
                   std::strerror(errno));
    }

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        ::close(pair[0]);
        ::close(pair[1]);
        davf_throw(ErrorKind::Io, "fork failed: ",
                   std::strerror(saved));
    }

    if (pid == 0) {
        // Child: the socket onto stdin and stdout (dup2 clears
        // O_CLOEXEC), the optional address-space cap, then exec. Only
        // async-signal-safe calls between fork and exec.
        if (::dup2(pair[1], STDIN_FILENO) < 0
            || ::dup2(pair[1], STDOUT_FILENO) < 0)
            ::_exit(127);
        if (options.memLimitMb != 0) {
            struct rlimit limit;
            limit.rlim_cur = limit.rlim_max =
                static_cast<rlim_t>(options.memLimitMb) << 20;
            ::setrlimit(RLIMIT_AS, &limit);
        }
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }

    ::close(pair[1]);
    childPid = pid;
    link = FrameConn(pair[0]);
}

void
Subprocess::closeWrite()
{
    link.shutdownWrite();
}

ExitStatus
Subprocess::wait()
{
    if (status)
        return *status;
    davf_assert(childPid > 0, "wait() without a spawned child");
    int wstatus = 0;
    struct rusage ru = {};
    for (;;) {
        const pid_t got = ::wait4(childPid, &wstatus, 0, &ru);
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0) {
            davf_throw(ErrorKind::Io, "wait4 failed: ",
                       std::strerror(errno));
        }
        break;
    }
    status = decodeWait(wstatus, ru);
    link.close();
    return *status;
}

ExitStatus
Subprocess::terminate(double grace_ms)
{
    if (status)
        return *status;
    davf_assert(childPid > 0, "terminate() without a spawned child");

    ::kill(childPid, SIGTERM);
    const double deadline = steadyNowMs() + std::max(grace_ms, 0.0);
    for (;;) {
        int wstatus = 0;
        struct rusage ru = {};
        const pid_t got = ::wait4(childPid, &wstatus, WNOHANG, &ru);
        if (got == childPid) {
            status = decodeWait(wstatus, ru);
            link.close();
            return *status;
        }
        if (got < 0 && errno != EINTR) {
            davf_throw(ErrorKind::Io, "wait4 failed: ",
                       std::strerror(errno));
        }
        if (steadyNowMs() >= deadline)
            break;
        ::usleep(2000);
    }

    ::kill(childPid, SIGKILL);
    return wait();
}

} // namespace davf
