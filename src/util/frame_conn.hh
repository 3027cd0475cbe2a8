/**
 * @file
 * Length-prefixed frames over a stream file descriptor: the one wire
 * format every DelayAVF process pair speaks (supervisor <-> worker
 * over a socketpair, coordinator <-> node over TCP, client <-> server
 * over a Unix socket).
 *
 * A frame is a 4-byte little-endian length followed by that many
 * payload bytes, so a reader never sees a torn message and binary
 * payloads are safe. A length above kMaxFrameBytes means a corrupt or
 * hostile stream and is rejected before any allocation; EOF inside a
 * frame is reported as a torn frame, never as a clean close.
 *
 * FrameConn is the deadline-bounded, buffered reader + writer over one
 * owned descriptor. The free functions writeFrameFd()/readFrameFd()
 * are the blocking forms for borrowed descriptors.
 */

#ifndef DAVF_UTIL_FRAME_CONN_HH
#define DAVF_UTIL_FRAME_CONN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace davf {

/** Largest accepted frame payload; bigger prefixes mean a corrupt or
 *  hostile stream and are rejected with DavfError{BadInput}. */
inline constexpr size_t kMaxFrameBytes = 64u << 20;

/** Monotonic milliseconds: the timebase of every frame deadline. */
double steadyNowMs();

/** Append one length-prefixed frame to @p fd (throws DavfError{Io}). */
void writeFrameFd(int fd, std::string_view payload);

/**
 * Blocking frame read from @p fd. Returns false on a clean EOF before
 * any frame byte; throws DavfError{BadInput} on a torn or oversized
 * frame and DavfError{Io} on a read error. Bytes past the frame are
 * not kept, so use it only where the peer sends one frame per turn.
 */
bool readFrameFd(int fd, std::string &out);

/**
 * One framed stream connection. Owns the fd; reads buffer partial
 * frames across calls (a Timeout loses nothing), writes retry short
 * writes and EINTR. Not thread-safe: callers that write from several
 * threads share a mutex.
 */
class FrameConn
{
  public:
    FrameConn() = default;
    explicit FrameConn(int the_fd) : fd(the_fd) {}
    ~FrameConn() { close(); }

    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;
    FrameConn(FrameConn &&other) noexcept { *this = std::move(other); }
    FrameConn &
    operator=(FrameConn &&other) noexcept
    {
        if (this != &other) {
            close();
            fd = other.fd;
            hungUp = other.hungUp;
            rxBuffer = std::move(other.rxBuffer);
            other.fd = -1;
            other.rxBuffer.clear();
        }
        return *this;
    }

    bool open() const { return fd >= 0; }

    /** The peer closed its side (read() saw EOF, at or inside a frame). */
    bool peerClosed() const { return hungUp; }

    /** Send one frame (throws DavfError{Io} if the peer vanished). */
    void send(std::string_view payload);

    enum class ReadStatus : uint8_t {
        Frame,   ///< A complete frame was read into @c out.
        Eof,     ///< The peer closed the connection cleanly.
        Timeout, ///< No complete frame arrived before the deadline.
    };

    /**
     * Read one frame with a wall-clock budget of @p timeout_ms (<= 0
     * polls once without blocking). Throws DavfError{BadInput} on a
     * torn or oversized frame (rejected before allocating) and
     * DavfError{Io} on a read error.
     */
    ReadStatus read(std::string &out, double timeout_ms);

    /** Half-close: the peer reads EOF, this side can still read. */
    void shutdownWrite();

    /** Close the connection (idempotent). */
    void close();

  private:
    int fd = -1;
    bool hungUp = false;
    std::string rxBuffer; ///< Bytes read but not yet framed.
};

} // namespace davf

#endif // DAVF_UTIL_FRAME_CONN_HH
