// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <utility>

namespace monoclass {
namespace net {
namespace {

// A peer that disappears mid-write must surface as a SendAll failure,
// not a process-killing SIGPIPE. MSG_NOSIGNAL covers ::send; nothing
// else in these wrappers writes to a socket.
constexpr int kSendFlags = MSG_NOSIGNAL;

bool FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::SendAll(const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, data + sent, size - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

long Socket::RecvSome(uint8_t* data, size_t size) {
  while (true) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) return Socket();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  Socket socket(fd);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return Socket();
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Listener::~Listener() { Close(); }

bool Listener::Bind(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) return false;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_, SOMAXCONN) != 0) {
    Close();
    return false;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Close();
    return false;
  }
  port_ = ntohs(bound.sin_port);
  return true;
}

Socket Listener::Accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();
  }
}

void Listener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    Shutdown();
    ::close(fd_);
    fd_ = -1;
  }
}

bool SendFrame(Socket& socket, const Frame& frame) {
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  return socket.SendAll(bytes.data(), bytes.size());
}

std::optional<Frame> RecvFrame(Socket& socket) {
  std::vector<uint8_t> header(kFrameHeaderBytes);
  size_t got = 0;
  while (got < header.size()) {
    const long n = socket.RecvSome(header.data() + got, header.size() - got);
    if (n <= 0) {
      if (got == 0) return std::nullopt;  // orderly close between frames
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  const FrameHeader parsed = DecodeFrameHeader(header.data());
  std::vector<uint8_t> rest(static_cast<size_t>(parsed.payload_len) + 4);
  got = 0;
  while (got < rest.size()) {
    const long n = socket.RecvSome(rest.data() + got, rest.size() - got);
    if (n <= 0) throw WireError("connection closed mid-frame");
    got += static_cast<size_t>(n);
  }
  std::vector<uint8_t> whole;
  whole.reserve(kFrameOverheadBytes + parsed.payload_len);
  whole.insert(whole.end(), header.begin(), header.end());
  whole.insert(whole.end(), rest.begin(), rest.end());
  size_t consumed = 0;
  std::optional<Frame> frame = TryDecodeFrame(whole, &consumed);
  if (!frame.has_value()) {
    throw WireError("frame decoder demanded more bytes than its header");
  }
  return frame;
}

}  // namespace net
}  // namespace monoclass
