#include "serve/socket_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"

namespace exareq::serve {
namespace {

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  exareq::require(path.size() < sizeof(address.sun_path), [&] {
    return "socket path '" + path + "' is too long";
  });
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t chunk =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (chunk < 0) {
      if (errno == EINTR) continue;
      throw exareq::Error(std::string("socket send failed: ") +
                          std::strerror(errno));
    }
    sent += static_cast<std::size_t>(chunk);
  }
}

}  // namespace

SocketServer::SocketServer(Server& server, std::string socket_path,
                           std::size_t max_frame_bytes)
    : server_(server),
      path_(std::move(socket_path)),
      max_frame_bytes_(max_frame_bytes) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  exareq::require(!running_.load(), "SocketServer: already started");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw exareq::Error(std::string("cannot create socket: ") +
                        std::strerror(errno));
  }
  const sockaddr_un address = socket_address(path_);
  ::unlink(path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw exareq::Error("cannot listen on '" + path_ + "': " + what);
  }
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void SocketServer::stop() {
  if (!running_.exchange(false)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(connections_);
  }
  for (std::thread& connection : connections) connection.join();
  ::unlink(path_.c_str());
}

void SocketServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken) — stop accepting
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void SocketServer::serve_connection(int fd) {
  // Deregister before closing so stop() never calls shutdown on a reused
  // file-descriptor number.
  const auto finish = [this, fd] {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(connection_fds_, fd);
    ::close(fd);
  };
  FrameDecoder decoder(max_frame_bytes_);
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF or shutdown
    std::vector<std::string> lines;
    try {
      lines = decoder.feed(std::string_view(chunk, static_cast<std::size_t>(got)));
    } catch (const exareq::Error& error) {
      // Oversized frame: tell the client why, then drop the connection —
      // the stream position is unrecoverable.
      try {
        send_all(fd, error_response("bad-request", error.what()) + '\n');
      } catch (const exareq::Error&) {
      }
      finish();
      return;
    }
    for (const std::string& line : lines) {
      try {
        send_all(fd, server_.handle(line) + '\n');
      } catch (const exareq::Error&) {
        // Peer went away mid-response; drop the connection.
        finish();
        return;
      }
    }
  }
  finish();
}

std::string query_over_socket(const std::string& socket_path,
                              const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw exareq::Error(std::string("cannot create socket: ") +
                        std::strerror(errno));
  }
  const sockaddr_un address = socket_address(socket_path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw exareq::Error("cannot connect to '" + socket_path + "': " + what);
  }
  try {
    send_all(fd, line + "\n");
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const std::size_t newline = buffer.find('\n');
      if (newline != std::string::npos) {
        ::close(fd);
        return buffer.substr(0, newline);
      }
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      exareq::require(got > 0, "connection closed before a response arrived");
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace exareq::serve
