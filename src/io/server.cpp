#include "io/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

namespace {

/** Steady-clock microseconds (monotonic; only differences are used). */
double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Status::Code -> the wire code string (docs/PROTOCOL.md, normative). */
const char *
statusCodeName(Status::Code code)
{
    switch (code) {
      case Status::Code::Ok: return "ok";
      case Status::Code::InvalidArgument: return "invalid_argument";
      case Status::Code::NotFound: return "not_found";
      case Status::Code::AlreadyExists: return "already_exists";
      case Status::Code::Internal: return "internal";
      case Status::Code::DeadlineExceeded: return "deadline_exceeded";
      case Status::Code::ResourceExhausted: return "resource_exhausted";
    }
    return "internal";
}

/** One `hatt-status` v1 frame, compact (frames are single lines). */
std::string
statusFrame(bool ok, const char *code, const std::string &message,
            const char *op = nullptr)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-status");
    doc.add("version", 1);
    doc.add("ok", ok);
    doc.add("code", code);
    doc.add("message", message);
    if (op)
        doc.add("op", op);
    return doc.dump();
}

/** Tighten a request's cap with the server's: the effective value is
    the smaller non-zero one (0 = unset on either side). */
uint64_t
tightenCap(uint64_t requested, uint64_t server_cap)
{
    if (server_cap == 0)
        return requested;
    if (requested == 0)
        return server_cap;
    return std::min(requested, server_cap);
}

double
tightenSeconds(double requested, double server_cap)
{
    if (server_cap <= 0.0)
        return requested;
    if (requested <= 0.0)
        return server_cap;
    return std::min(requested, server_cap);
}

} // namespace

/** One client connection's loop state. */
struct Server::Connection
{
    int fd = -1;
    std::string in;  //!< bytes received, not yet framed
    std::string out; //!< response bytes not yet written
    bool closing = false; //!< close as soon as `out` drains
    bool sawEof = false;  //!< peer half-closed; flush, then close
    bool dead = false;    //!< torn down this iteration
    /** Steady-clock deadline (µs): while a partial frame is pending,
        the slow-loris budget; while closing, the write-drain budget.
        0 = no deadline armed. */
    double expiryUs = 0.0;

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      service_(ServiceConfig{config_.cacheDir, /*memoryStore=*/true})
{
}

Server::~Server()
{
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeReadFd_ >= 0)
        ::close(wakeReadFd_);
    if (wakeWriteFd_ >= 0)
        ::close(wakeWriteFd_);
}

Status
Server::bind()
{
    if (listenFd_ >= 0)
        return Status::internal("server is already bound");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
        return Status::invalidArgument("bad listen address '" +
                                       config_.host + "'");
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      0);
    if (fd < 0)
        return Status::internal(std::string("socket: ") +
                                std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::internal("bind " + config_.host + ":" +
                                std::to_string(config_.port) + ": " +
                                std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::internal(std::string("listen: ") +
                                std::strerror(err));
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::internal(std::string("getsockname: ") +
                                std::strerror(err));
    }
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::internal(std::string("pipe2: ") +
                                std::strerror(err));
    }
    wakeReadFd_ = pipe_fds[0];
    wakeWriteFd_ = pipe_fds[1];
    port_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    return {};
}

void
Server::requestStop()
{
    // Async-signal-safe on purpose: hattd's SIGTERM/SIGINT handler
    // calls this (atomic store + write(2), nothing else).
    stopRequested_.store(true, std::memory_order_release);
    if (wakeWriteFd_ >= 0) {
        const char byte = 's';
        [[maybe_unused]] ssize_t n = ::write(wakeWriteFd_, &byte, 1);
    }
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    trace::instant("server", "drain");
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Bound the drain: a peer that never reads its last response must
    // not pin the process open.
    const double budget = config_.frameTimeoutSeconds > 0.0
                              ? config_.frameTimeoutSeconds
                              : 30.0;
    drainDeadlineUs_ = nowUs() + budget * 1e6;
}

void
Server::acceptClients()
{
    for (;;) {
        sockaddr_in peer{};
        socklen_t len = sizeof peer;
        int fd = ::accept4(listenFd_, reinterpret_cast<sockaddr *>(&peer),
                           &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                metrics::add("server.accept_errors");
            return;
        }
        // Injection point: the accept path failing in the field (fd
        // exhaustion, RST before accept). Both actions model the
        // syscall-level failure — sockets do not throw.
        if (fault::at("net.accept") != fault::Action::None) {
            metrics::add("server.net_faults");
            ::close(fd);
            continue;
        }
        if (conns_.size() >= config_.maxConnections) {
            // Shed at the door: nothing was buffered for this peer yet.
            metrics::add("server.sheds");
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conns_.push_back(std::move(conn));
        metrics::add("server.connections");
        trace::instant("server", "accept");
    }
}

void
Server::queueFrame(Connection &conn, const std::string &payload)
{
    conn.out += payload;
    conn.out += '\n';
}

bool
Server::serviceInput(Connection &conn)
{
    char buf[4096];
    for (;;) {
        // Injection point: a read failing mid-stream (reset, EIO).
        if (fault::at("net.read") != fault::Action::None) {
            metrics::add("server.net_faults");
            return false;
        }
        ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.in.append(buf, static_cast<size_t>(n));
            // Stop reading once the buffer passes the frame cap:
            // complete frames are dispatched below and an over-cap
            // partial is rejected, so one fast peer can neither grow
            // memory unboundedly nor starve the other connections.
            // Level-triggered poll re-reports any bytes left behind.
            if (conn.in.size() > config_.maxFrameBytes)
                break;
            continue;
        }
        if (n == 0) {
            conn.sawEof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return false; // reset/teardown: nothing sensible left to send
    }

    // Frame and dispatch every complete line. Responses are queued in
    // request order (the protocol's pipelining contract).
    size_t pos;
    while (!conn.closing && !draining_ &&
           (pos = conn.in.find('\n')) != std::string::npos) {
        std::string line = conn.in.substr(0, pos);
        conn.in.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.find_first_not_of(" \t") == std::string::npos)
            continue; // blank keepalive line
        if (line.size() > config_.maxFrameBytes) {
            metrics::add("server.oversized_frames");
            queueFrame(conn,
                       statusFrame(false, "resource_exhausted",
                                   "frame exceeds " +
                                       std::to_string(
                                           config_.maxFrameBytes) +
                                       " bytes"));
            conn.closing = true;
            break;
        }
        queueFrame(conn, handleFrame(line));
    }

    // A partial frame already past the cap can never complete: reject
    // it now instead of buffering attacker-paced bytes forever.
    if (!conn.closing && conn.in.size() > config_.maxFrameBytes) {
        metrics::add("server.oversized_frames");
        queueFrame(conn,
                   statusFrame(false, "resource_exhausted",
                               "frame exceeds " +
                                   std::to_string(config_.maxFrameBytes) +
                                   " bytes"));
        conn.in.clear();
        conn.closing = true;
    }

    // Slow-loris bookkeeping: arm the frame deadline while a partial
    // frame is pending, clear it once the buffer empties.
    if (conn.closing) {
        conn.expiryUs = nowUs() + (config_.frameTimeoutSeconds > 0.0
                                       ? config_.frameTimeoutSeconds
                                       : 30.0) *
                                      1e6;
    } else if (conn.in.empty()) {
        conn.expiryUs = 0.0;
    } else if (conn.expiryUs == 0.0 && config_.frameTimeoutSeconds > 0.0) {
        conn.expiryUs = nowUs() + config_.frameTimeoutSeconds * 1e6;
    }

    if (conn.sawEof && conn.out.empty())
        return false; // clean close, mid-frame or not
    return true;
}

bool
Server::flushOutput(Connection &conn)
{
    while (!conn.out.empty()) {
        // Injection point: a write failing mid-response (EPIPE, reset).
        if (fault::at("net.write") != fault::Action::None) {
            metrics::add("server.net_faults");
            return false;
        }
        ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true; // kernel buffer full; poll for POLLOUT
        return false;
    }
    // Fully flushed: a finished connection closes here.
    return !(conn.closing || conn.sawEof || draining_);
}

std::string
Server::handleFrame(const std::string &line)
{
    trace::Span span("server", "frame");
    metrics::add("server.frames");

    JsonValue doc;
    try {
        doc = JsonValue::parse(line);
    } catch (const ParseError &e) {
        metrics::add("server.bad_frames");
        return statusFrame(false, "invalid_argument",
                           std::string("bad frame: ") + e.what());
    }
    if (!doc.isObject()) {
        metrics::add("server.bad_frames");
        return statusFrame(false, "invalid_argument",
                           "frame must be a JSON object");
    }

    if (const JsonValue *op = doc.find("op")) {
        if (!op->isString()) {
            metrics::add("server.bad_frames");
            return statusFrame(false, "invalid_argument",
                               "op must be a string");
        }
        const std::string &verb = op->asString();
        if (verb == "ping") {
            metrics::add("server.pings");
            return statusFrame(true, "ok", "pong", "ping");
        }
        if (verb == "stats") {
            trace::Span stats_span("server", "stats");
            // Count the request BEFORE the snapshot, so the Nth stats
            // response deterministically reports N of itself.
            metrics::add("server.stats_requests");
            JsonValue out = JsonValue::object();
            out.add("format", "hatt-stats");
            out.add("version", 1);
            out.add("build", buildInfoDocument());
            out.add("metrics",
                    metricsSectionsDocument(metrics::snapshot()));
            return out.dump();
        }
        if (verb == "shutdown") {
            metrics::add("server.shutdown_requests");
            beginDrain();
            return statusFrame(true, "ok",
                               "draining: queued responses flush, then "
                               "the daemon exits",
                               "shutdown");
        }
        metrics::add("server.bad_frames");
        return statusFrame(false, "invalid_argument",
                           "unknown op '" + verb + "'");
    }

    const JsonValue *format = doc.find("format");
    if (format && format->isString() &&
        format->asString() == "hatt-compile-request")
        return handleCompile(doc);

    metrics::add("server.bad_frames");
    return statusFrame(false, "invalid_argument",
                       "frame is neither a control op nor a "
                       "hatt-compile-request");
}

std::string
Server::handleCompile(const JsonValue &doc)
{
    trace::Span span("server", "compile");
    metrics::add("server.compile_requests");

    CompileRequest req;
    try {
        req = compileRequestFromJson(doc);
    } catch (const ParseError &e) {
        // Covers newer-version rejection: checkEnvelope throws before
        // any field is half-parsed.
        metrics::add("server.bad_frames");
        return statusFrame(false, "invalid_argument", e.what());
    }

    // Artifacts stay beneath the server's out root: the wire out_dir
    // must be relative and `..`-free.
    const fs::path rel(req.outDir);
    bool escapes = rel.is_absolute();
    for (const fs::path &part : rel)
        escapes = escapes || part == "..";
    if (escapes) {
        metrics::add("server.bad_frames");
        return statusFrame(false, "invalid_argument",
                           "out_dir must be a relative path without "
                           "'..' (resolved under the server's out "
                           "root)");
    }
    req.outDir =
        (fs::path(config_.outRoot) / rel).lexically_normal().string();

    // Server-side guards tighten the request's own: untrusted traffic
    // can narrow its budget and caps, never widen the server's.
    req.maxTerms = tightenCap(req.maxTerms, config_.limits.maxTerms);
    req.maxModes = static_cast<uint32_t>(
        tightenCap(req.maxModes, config_.limits.maxModes));
    req.timeoutSeconds =
        tightenSeconds(req.timeoutSeconds, config_.timeoutSeconds);

    StatusOr<CompileResponse> result = service_.compile(req);
    if (!result.ok()) {
        metrics::add("server.compile_errors");
        return statusFrame(false, statusCodeName(result.status().code()),
                           result.status().message());
    }
    return compileResponseToJson(result.value()).dump();
}

int
Server::run()
{
    if (listenFd_ < 0 && !draining_)
        return 70; // run() before bind() is a caller bug
    metrics::add("server.runs");
    trace::instant("server", "run");

    while (true) {
        if (stopRequested_.load(std::memory_order_acquire))
            beginDrain();

        // Sweep: expire slow-loris/drain deadlines, close finished
        // connections.
        const double now = nowUs();
        for (auto &conn : conns_) {
            if (conn->dead)
                continue;
            if (draining_ && now >= drainDeadlineUs_) {
                conn->dead = true;
                continue;
            }
            if (!conn->closing && conn->expiryUs > 0.0 &&
                now >= conn->expiryUs) {
                metrics::add("server.frame_timeouts");
                trace::instant("server", "frame_timeout");
                queueFrame(*conn,
                           statusFrame(false, "deadline_exceeded",
                                       "frame still incomplete after "
                                       "the frame timeout"));
                conn->in.clear();
                conn->closing = true;
                conn->expiryUs = now + (config_.frameTimeoutSeconds > 0.0
                                            ? config_.frameTimeoutSeconds
                                            : 30.0) *
                                           1e6;
            } else if (conn->closing && conn->expiryUs > 0.0 &&
                       now >= conn->expiryUs) {
                conn->dead = true; // peer never drained its responses
            }
            if (!conn->dead && conn->out.empty() &&
                (conn->closing || conn->sawEof || draining_))
                conn->dead = true;
        }
        const size_t before = conns_.size();
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const auto &c) { return c->dead; }),
                     conns_.end());
        for (size_t i = before; i > conns_.size(); --i)
            trace::instant("server", "close");

        if (draining_ && conns_.empty())
            break;

        // Poll set: wake pipe, listener (unless draining or at
        // capacity), then one slot per connection.
        std::vector<pollfd> fds;
        fds.reserve(conns_.size() + 2);
        fds.push_back({wakeReadFd_, POLLIN, 0});
        int listen_slot = -1;
        if (!draining_ && listenFd_ >= 0 &&
            conns_.size() < config_.maxConnections) {
            listen_slot = static_cast<int>(fds.size());
            fds.push_back({listenFd_, POLLIN, 0});
        }
        const size_t conn_base = fds.size();
        // Snapshot: connections accepted after poll() returns have no
        // pollfd slot, so the dispatch loop below must not index past
        // this count; they join the poll set next iteration.
        const size_t polled = conns_.size();
        for (const auto &conn : conns_) {
            short events = 0;
            if (!draining_ && !conn->closing)
                events |= POLLIN;
            if (!conn->out.empty())
                events |= POLLOUT;
            fds.push_back({conn->fd, events, 0});
        }

        // Timeout: the nearest armed deadline, else block on events.
        double next = 0.0;
        for (const auto &conn : conns_)
            if (conn->expiryUs > 0.0 &&
                (next == 0.0 || conn->expiryUs < next))
                next = conn->expiryUs;
        if (draining_ && (next == 0.0 || drainDeadlineUs_ < next))
            next = drainDeadlineUs_;
        int timeout_ms = -1;
        if (next > 0.0) {
            const double remaining = (next - nowUs()) / 1000.0;
            timeout_ms = remaining <= 0.0
                             ? 0
                             : static_cast<int>(
                                   std::min(remaining + 1.0, 60000.0));
        }

        const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return 70; // poll itself failed: the loop cannot continue
        }

        if (fds[0].revents & POLLIN) {
            char drain_buf[64];
            while (::read(wakeReadFd_, drain_buf, sizeof drain_buf) > 0) {
            }
        }
        if (listen_slot >= 0 && (fds[listen_slot].revents & POLLIN))
            acceptClients();

        for (size_t i = 0; i < polled; ++i) {
            Connection &conn = *conns_[i];
            const short revents = fds[conn_base + i].revents;
            if (revents == 0)
                continue;
            bool alive = true;
            // No new work once the drain starts or the connection is
            // closing — poll can still report POLLHUP/POLLERR even
            // though POLLIN was not requested, and reading would frame
            // and execute buffered requests. A hung-up peer is caught
            // by flushOutput (EPIPE) or the drain/close sweep above.
            if ((revents & (POLLIN | POLLHUP | POLLERR)) && !draining_ &&
                !conn.closing)
                alive = serviceInput(conn);
            if (alive && !conn.out.empty())
                alive = flushOutput(conn);
            if (!alive)
                conn.dead = true;
        }
    }

    // Graceful shutdown: the trace buffer is written while the process
    // still exists. The durable tier needs no flush — every entry and
    // its last use (the file mtime) are on disk as they happen.
    metrics::add("server.shutdowns");
    if (trace::active())
        trace::flush();
    return 0;
}

} // namespace hatt::io
