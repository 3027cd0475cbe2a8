#include "frame_conn.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/logging.hh"

namespace davf {

namespace {

/**
 * Pop one complete frame out of @p buffer if present. The length
 * prefix is checked against kMaxFrameBytes before any payload is
 * buffered, so a hostile prefix cannot balloon memory.
 */
bool
popFrame(std::string &buffer, std::string &out)
{
    if (buffer.size() < 4)
        return false;
    const uint32_t length =
        static_cast<uint32_t>(static_cast<uint8_t>(buffer[0]))
        | static_cast<uint32_t>(static_cast<uint8_t>(buffer[1])) << 8
        | static_cast<uint32_t>(static_cast<uint8_t>(buffer[2])) << 16
        | static_cast<uint32_t>(static_cast<uint8_t>(buffer[3])) << 24;
    if (length > kMaxFrameBytes) {
        davf_throw(ErrorKind::BadInput, "frame length ", length,
                   " exceeds the ", kMaxFrameBytes,
                   "-byte ceiling (corrupt or hostile peer)");
    }
    if (buffer.size() < 4u + length)
        return false;
    out.assign(buffer, 4, length);
    buffer.erase(0, 4u + length);
    return true;
}

/** Append one read(2) worth of bytes to @p buffer; false at EOF. */
bool
readChunk(int fd, std::string &buffer)
{
    char chunk[65536];
    for (;;) {
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got > 0) {
            buffer.append(chunk, static_cast<size_t>(got));
            return true;
        }
        if (got == 0)
            return false;
        if (errno != EINTR) {
            davf_throw(ErrorKind::Io, "frame read failed: ",
                       std::strerror(errno));
        }
    }
}

[[noreturn]] void
throwTorn(size_t stray_bytes)
{
    davf_throw(ErrorKind::BadInput,
               "peer closed the connection mid-frame (", stray_bytes,
               " stray bytes)");
}

} // namespace

double
steadyNowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
writeFrameFd(int fd, std::string_view payload)
{
    davf_assert(payload.size() <= kMaxFrameBytes,
                "frame payload too large: ", payload.size());
    const auto size = static_cast<uint32_t>(payload.size());
    std::string wire = {static_cast<char>(size),
                        static_cast<char>(size >> 8),
                        static_cast<char>(size >> 16),
                        static_cast<char>(size >> 24)};
    wire.append(payload);
    size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n =
            ::write(fd, wire.data() + sent, wire.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            davf_throw(ErrorKind::Io, "frame write failed: ",
                       std::strerror(errno));
        }
        sent += static_cast<size_t>(n);
    }
}

bool
readFrameFd(int fd, std::string &out)
{
    std::string buffer;
    while (!popFrame(buffer, out)) {
        if (!readChunk(fd, buffer)) {
            if (buffer.empty())
                return false;
            throwTorn(buffer.size());
        }
    }
    return true;
}

void
FrameConn::send(std::string_view payload)
{
    if (fd < 0)
        davf_throw(ErrorKind::Io, "send on a closed connection");
    writeFrameFd(fd, payload);
}

FrameConn::ReadStatus
FrameConn::read(std::string &out, double timeout_ms)
{
    if (fd < 0)
        davf_throw(ErrorKind::Io, "read on a closed connection");

    const double deadline = steadyNowMs() + std::max(timeout_ms, 0.0);
    for (;;) {
        if (popFrame(rxBuffer, out))
            return ReadStatus::Frame;

        const double remaining = deadline - steadyNowMs();
        if (remaining <= 0.0 && timeout_ms > 0.0)
            return ReadStatus::Timeout;

        pollfd pfd = {fd, POLLIN, 0};
        const int rc = ::poll(
            &pfd, 1,
            timeout_ms <= 0.0
                ? 0
                : static_cast<int>(std::max(remaining, 1.0)));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            davf_throw(ErrorKind::Io, "poll: ", std::strerror(errno));
        }
        if (rc == 0)
            return ReadStatus::Timeout;

        if (!readChunk(fd, rxBuffer)) {
            hungUp = true;
            if (rxBuffer.empty())
                return ReadStatus::Eof;
            throwTorn(rxBuffer.size());
        }
    }
}

void
FrameConn::shutdownWrite()
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_WR);
}

void
FrameConn::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    rxBuffer.clear();
}

} // namespace davf
