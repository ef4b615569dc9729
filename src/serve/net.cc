#include "net.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace specsec::serve::net
{

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/// getaddrinfo over TCP/IPv4+6; empty host means loopback.
struct ResolvedAddrs
{
    addrinfo *list = nullptr;
    ~ResolvedAddrs()
    {
        if (list)
            ::freeaddrinfo(list);
    }
};

bool
resolve(const std::string &host, std::uint16_t port, bool passive,
        ResolvedAddrs &out, std::string *error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    const std::string service = std::to_string(port);
    const char *node =
        host.empty() ? (passive ? nullptr : "127.0.0.1")
                     : host.c_str();
    const int rc =
        ::getaddrinfo(node, service.c_str(), &hints, &out.list);
    if (rc != 0)
        return fail(error, "cannot resolve '" + host +
                               "': " + ::gai_strerror(rc));
    return true;
}

} // namespace

bool
parseEndpoint(const std::string &text, Endpoint &endpoint,
              std::string *error)
{
    const std::size_t colon = text.rfind(':');
    if (colon == std::string::npos)
        return fail(error, "expected HOST:PORT, got '" + text + "'");
    const std::string port_text = text.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") !=
            std::string::npos)
        return fail(error,
                    "bad port in '" + text + "' (decimal required)");
    const unsigned long port = std::strtoul(port_text.c_str(),
                                            nullptr, 10);
    if (port == 0 || port > 65535)
        return fail(error, "port out of range in '" + text + "'");
    endpoint.host =
        colon == 0 ? std::string("127.0.0.1") : text.substr(0, colon);
    endpoint.port = static_cast<std::uint16_t>(port);
    return true;
}

Conn::Conn(Conn &&other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_))
{
    other.fd_ = -1;
}

Conn &
Conn::operator=(Conn &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buffer_ = std::move(other.buffer_);
        other.fd_ = -1;
    }
    return *this;
}

bool
Conn::readLine(std::string &line)
{
    // Each search starts where the last one stopped, so a line of
    // many chunks is scanned once, not once per chunk.
    std::size_t scanned = 0;
    for (;;) {
        const std::size_t nl = buffer_.find('\n', scanned);
        if (nl != std::string::npos) {
            line.assign(buffer_, 0, nl);
            buffer_.erase(0, nl + 1);
            return true;
        }
        scanned = buffer_.size();
        if (fd_ < 0)
            return false;
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false; // EOF or error; any partial frame is dropped
    }
}

bool
Conn::writeLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string framed = line;
    framed += '\n';
    // Blocking send loop, audited for the two ways send() delivers
    // less than asked: a *short write* (kernel buffer smaller than
    // the frame — protocol lines carry whole campaign exports, far
    // beyond SO_SNDBUF) advances off and loops until every byte is
    // out, and EINTR retries the same offset.  Mirrors readLine's
    // EINTR handling above; tests/serve_test.cc forces a partial
    // write through a shrunken send buffer to pin this.
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
Conn::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
Conn::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

Conn
dial(const Endpoint &endpoint, std::string *error)
{
    ResolvedAddrs addrs;
    if (!resolve(endpoint.host, endpoint.port, false, addrs, error))
        return Conn();
    std::string reason = "connect failed";
    for (addrinfo *ai = addrs.list; ai; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                                ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
            return Conn(fd);
        }
        reason = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
    }
    fail(error, reason + " (" + endpoint.host + ":" +
                    std::to_string(endpoint.port) + ")");
    return Conn();
}

bool
Listener::listenOn(const Endpoint &endpoint, std::string *error)
{
    close();
    ResolvedAddrs addrs;
    if (!resolve(endpoint.host, endpoint.port, true, addrs, error))
        return false;
    std::string reason = "bind failed";
    for (addrinfo *ai = addrs.list; ai; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                                ai->ai_protocol);
        if (fd < 0)
            continue;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0) {
            sockaddr_storage bound{};
            socklen_t len = sizeof bound;
            if (::getsockname(
                    fd, reinterpret_cast<sockaddr *>(&bound),
                    &len) == 0) {
                if (bound.ss_family == AF_INET)
                    port_ = ntohs(
                        reinterpret_cast<sockaddr_in *>(&bound)
                            ->sin_port);
                else if (bound.ss_family == AF_INET6)
                    port_ = ntohs(
                        reinterpret_cast<sockaddr_in6 *>(&bound)
                            ->sin6_port);
            }
            fd_ = fd;
            return true;
        }
        reason = std::string("bind/listen: ") +
                 std::strerror(errno);
        ::close(fd);
    }
    return fail(error, reason + " (" + endpoint.host + ":" +
                           std::to_string(endpoint.port) + ")");
}

Conn
Listener::acceptOne(int timeout_ms)
{
    if (fd_ < 0)
        return Conn();
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0 || (pfd.revents & POLLIN) == 0)
        return Conn();
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0)
        return Conn();
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof one);
    return Conn(client);
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    port_ = 0;
}

} // namespace specsec::serve::net
