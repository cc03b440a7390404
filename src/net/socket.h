// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Minimal blocking TCP wrappers for the serving layer. This is the ONLY
// file pair in the tree allowed to touch raw socket syscalls (::socket,
// ::connect, ::send, ::recv, htons & friends) -- mc_lint rule MC012
// bans them everywhere outside src/net/, so every byte on the wire
// flows through these RAII types and the frame codec.
//
// The wrappers are deliberately loopback-grade: numeric IPv4 hosts,
// blocking I/O, no TLS. monoclassd serves trusted clients on a local
// or private interface; see docs/serving.md.

#ifndef MONOCLASS_NET_SOCKET_H_
#define MONOCLASS_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "net/frame.h"

namespace monoclass {
namespace net {

// Movable owner of a connected socket descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Sends the whole buffer; false on any error or peer close.
  bool SendAll(const uint8_t* data, size_t size);

  // Receives up to `size` bytes. Returns the count read, 0 on orderly
  // peer close, -1 on error.
  long RecvSome(uint8_t* data, size_t size);

  // Shuts down both directions (unblocks a reader in another thread)
  // without releasing the descriptor.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

// Connects to host:port (numeric IPv4, e.g. "127.0.0.1"). Returns an
// invalid Socket on failure.
Socket ConnectTcp(const std::string& host, uint16_t port);

// Listening socket bound to a numeric IPv4 host. port 0 picks an
// ephemeral port, readable via port() after Bind.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool Bind(const std::string& host, uint16_t port);
  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  // Blocks for the next connection; invalid Socket once shut down.
  Socket Accept();

  // Unblocks an Accept on another thread without closing the descriptor
  // it reads; Close() once that thread is done.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// Frame transport over a connected socket. SendFrame writes the whole
// encoded frame; RecvFrame reads exactly one frame (header first, then
// payload + checksum), throwing WireError on malformed bytes and
// returning nullopt on orderly close / transport error before a full
// header arrived.
bool SendFrame(Socket& socket, const Frame& frame);
std::optional<Frame> RecvFrame(Socket& socket);

}  // namespace net
}  // namespace monoclass

#endif  // MONOCLASS_NET_SOCKET_H_
