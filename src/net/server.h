// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Embeddable monoclassd server core (docs/serving.md).
//
// One acceptor thread hands each connection to a dedicated reader
// thread, and the reader handles every frame it decodes itself: decode,
// dispatch, solve or replay, answer. Requests on one connection are
// therefore handled in order. Across connections at most
// ServerOptions::parallel frames are handled at once: a reader takes a
// free handler slot before it handles a frame and waits for one
// (mc.lat.srv_slot_wait) while all are taken. Every solve a handler
// starts runs serially, so a frame occupies exactly one thread and the
// slot count bounds the server's concurrent solver work. Sessions live
// in a SessionManager keyed by u64 ids, so a client may drop its
// connection and resume a session from a new one. All synchronization
// goes through the mc:: seam (util/concurrency.h), keeping the model
// checker applicable.
//
// tools/monoclassd.cc is the thin daemon main around this class;
// tests/net_server_test.cc embeds it in-process.

#ifndef MONOCLASS_NET_SERVER_H_
#define MONOCLASS_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/session.h"
#include "net/socket.h"
#include "util/concurrency.h"
#include "util/sync_model.h"

namespace monoclass {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via Server::port()
  // The most frames handled at once across all connections
  // (ParallelOptions semantics: 0 = hardware concurrency). Each frame is
  // handled on its connection's reader thread once it holds a slot.
  ParallelOptions parallel;
  SessionManager::Config sessions;
  // Honor kShutdown frames (the load generator's clean-exit path).
  // Disable to ignore them, e.g. for a shared long-lived daemon.
  bool allow_remote_shutdown = true;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the acceptor. False on bind failure.
  bool Start();

  // The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  // Blocks until Stop() is called or a remote shutdown frame arrives.
  void Wait();

  // Stops accepting, unblocks every connection and joins all threads.
  // Idempotent; safe to call from any thread except a handler.
  void Stop();

  SessionManager& sessions() { return sessions_; }

 private:
  struct Connection {
    Socket socket;
    Mutex write_mu;
    mc::thread reader;
    bool done = false;  // guarded by Server::conn_mu_
  };

  void AcceptLoop();
  void ConnectionLoop(Connection* connection);
  // Blocks until a handler slot is free and takes it; times the wait.
  void AcquireHandlerSlot() MC_EXCLUDES(slot_mu_);
  void ReleaseHandlerSlot() MC_EXCLUDES(slot_mu_);
  // Decodes, dispatches and answers one frame. Returns false when the
  // connection must close (protocol error already reported).
  bool HandleFrame(Connection* connection, const Frame& frame);
  void SendStepOutcome(Connection* connection, uint64_t request_id,
                       uint64_t session_id,
                       const Session::StepOutcome& outcome);
  void SendOnConnection(Connection* connection, const Frame& frame);
  void SendError(Connection* connection, uint64_t request_id, uint32_t code,
                 const std::string& message);
  void RequestStop();

  const ServerOptions options_;
  SessionManager sessions_;
  Listener listener_;
  uint16_t port_ = 0;

  Mutex state_mu_;
  CondVar state_cv_;
  bool running_ MC_GUARDED_BY(state_mu_) = false;
  bool stop_requested_ MC_GUARDED_BY(state_mu_) = false;

  Mutex slot_mu_;
  CondVar slot_cv_;
  size_t free_slots_ MC_GUARDED_BY(slot_mu_);

  mc::thread acceptor_;
  Mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_
      MC_GUARDED_BY(conn_mu_);
};

}  // namespace net
}  // namespace monoclass

#endif  // MONOCLASS_NET_SERVER_H_
