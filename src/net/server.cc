// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "net/server.h"

#include <string>
#include <utility>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "passive/flow_solver.h"

namespace monoclass {
namespace net {
namespace {

Frame MakeFrame(MessageType type, uint64_t request_id,
                const WireStream& payload) {
  Frame frame;
  frame.type = static_cast<uint16_t>(type);
  frame.request_id = request_id;
  frame.payload = payload.bytes();
  return frame;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      sessions_(options_.sessions),
      free_slots_(options_.parallel.Resolve()) {}

Server::~Server() { Stop(); }

bool Server::Start() {
  {
    MutexLock lock(state_mu_);
    if (running_) return false;
    running_ = true;
    stop_requested_ = false;
  }
  if (!listener_.Bind(options_.host, options_.port)) {
    MutexLock lock(state_mu_);
    running_ = false;
    return false;
  }
  port_ = listener_.port();
  acceptor_ = mc::thread([this] { AcceptLoop(); });
  return true;
}

void Server::Wait() {
  MutexLock lock(state_mu_);
  state_cv_.Wait(state_mu_,
                 [this]() MC_REQUIRES(state_mu_) { return stop_requested_; });
}

void Server::RequestStop() {
  MutexLock lock(state_mu_);
  stop_requested_ = true;
  state_cv_.NotifyAll();
}

void Server::Stop() {
  {
    MutexLock lock(state_mu_);
    if (!running_) {
      stop_requested_ = true;
      state_cv_.NotifyAll();
      return;
    }
    running_ = false;
    stop_requested_ = true;
    state_cv_.NotifyAll();
  }
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(conn_mu_);
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    connection->socket.ShutdownBoth();
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }
}

void Server::AcceptLoop() {
  while (true) {
    Socket socket = listener_.Accept();
    if (!socket.valid()) return;  // listener closed -> shutting down
    MC_COUNTER("mc.srv.connections", 1);
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    MutexLock lock(conn_mu_);
    // Reap connections whose readers already finished, so a long-lived
    // daemon does not accumulate dead per-connection state.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done) {
        if ((*it)->reader.joinable()) (*it)->reader.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    connection->reader = mc::thread([this, raw] { ConnectionLoop(raw); });
    connections_.push_back(std::move(connection));
  }
}

void Server::ConnectionLoop(Connection* connection) {
  while (true) {
    std::optional<Frame> frame;
    try {
      frame = RecvFrame(connection->socket);
    } catch (const WireError& error) {
      MC_COUNTER("mc.srv.protocol_errors", 1);
      SendError(connection, 0,
                static_cast<uint32_t>(WireErrorCode::kBadFrame), error.what());
      break;
    }
    if (!frame.has_value()) break;  // orderly close or shutdown
    MC_COUNTER("mc.srv.frames_rx", 1);
    MC_COUNTER("mc.srv.bytes_rx",
               kFrameOverheadBytes + frame->payload.size());
    AcquireHandlerSlot();
    const bool keep_open = HandleFrame(connection, *frame);
    ReleaseHandlerSlot();
    if (!keep_open) break;
  }
  connection->socket.ShutdownBoth();
  MutexLock lock(conn_mu_);
  connection->done = true;
}

void Server::AcquireHandlerSlot() {
  MC_LATENCY("mc.lat.srv_slot_wait");
  MutexLock lock(slot_mu_);
  slot_cv_.Wait(slot_mu_,
                [this]() MC_REQUIRES(slot_mu_) { return free_slots_ > 0; });
  --free_slots_;
}

void Server::ReleaseHandlerSlot() {
  {
    MutexLock lock(slot_mu_);
    ++free_slots_;
  }
  slot_cv_.NotifyOne();
}

bool Server::HandleFrame(Connection* connection, const Frame& frame) {
  MC_LATENCY("mc.lat.srv_handler");
  MC_COUNTER("mc.srv.requests", 1);
  const uint64_t id = frame.request_id;
  try {
    WireStream in(frame.payload);
    switch (static_cast<MessageType>(frame.type)) {
      case MessageType::kPing: {
        const PingMessage ping = PingMessage::Unserialize(in);
        in.ExpectEnd();
        WireStream out;
        ping.Serialize(out);
        SendOnConnection(connection, MakeFrame(MessageType::kPong, id, out));
        break;
      }
      case MessageType::kPassiveSolveRequest: {
        const PassiveSolveRequest request =
            PassiveSolveRequest::Unserialize(in);
        in.ExpectEnd();
        // The wire enum is open; refuse a solver this server lacks
        // rather than answer with a different one.
        if (request.algorithm !=
            static_cast<uint8_t>(WireSolverAlgorithm::kFlowExact)) {
          throw WireError("unknown passive algorithm " +
                          std::to_string(request.algorithm));
        }
        MC_COUNTER("mc.srv.passive_solves", 1);
        const WeightedPointSet weighted = ToWeightedPointSet(request);
        PassiveSolveOptions solve_options;
        solve_options.reduce_to_contending =
            request.reduce_to_contending != 0;
        // Serial, like every solve a handler starts: the handler slots
        // bound the server's concurrent work, one thread per frame.
        solve_options.parallel.threads = 1;
        // kAuto routes large instances through the sparse chain-relay
        // network build automatically.
        const ::monoclass::PassiveSolveResult solved =
            SolvePassiveWeighted(weighted, solve_options);
        net::PassiveSolveResult reply;
        reply.classifier = solved.classifier;
        reply.optimal_weighted_error = solved.optimal_weighted_error;
        reply.network_vertices = solved.network_vertices;
        reply.network_finite_edges = solved.network_finite_edges;
        reply.used_sparse_network = solved.used_sparse_network ? 1 : 0;
        WireStream out;
        reply.Serialize(out);
        SendOnConnection(connection,
                         MakeFrame(MessageType::kPassiveSolveResult, id, out));
        break;
      }
      case MessageType::kSessionOpen: {
        SessionOpenRequest request = SessionOpenRequest::Unserialize(in);
        in.ExpectEnd();
        SessionOptions session_options;
        session_options.seed = request.seed;
        session_options.epsilon = request.epsilon;
        session_options.delta = request.delta;
        session_options.algorithm = request.algorithm;
        Session::StepOutcome outcome;
        const uint64_t session_id = sessions_.Open(
            std::move(request.points), session_options, &outcome);
        SendStepOutcome(connection, id, session_id, outcome);
        break;
      }
      case MessageType::kSessionStep: {
        const SessionStepRequest request = SessionStepRequest::Unserialize(in);
        in.ExpectEnd();
        MC_COUNTER("mc.srv.session_steps", 1);
        Session::StepOutcome outcome;
        const SessionManager::StepStatus status = sessions_.Step(
            request.session_id, request.indices, request.labels, &outcome);
        if (status == SessionManager::StepStatus::kUnknownSession) {
          SendError(connection, id,
                    static_cast<uint32_t>(WireErrorCode::kUnknownSession),
                    "unknown session");
        } else if (status == SessionManager::StepStatus::kBusy) {
          SendError(connection, id,
                    static_cast<uint32_t>(WireErrorCode::kSessionBusy),
                    "session is mid-step on another connection");
        } else {
          SendStepOutcome(connection, id, request.session_id, outcome);
        }
        break;
      }
      case MessageType::kSessionClose: {
        const SessionCloseRequest request =
            SessionCloseRequest::Unserialize(in);
        in.ExpectEnd();
        SessionClosedMessage reply;
        reply.session_id = request.session_id;
        reply.existed = sessions_.Close(request.session_id) ? 1 : 0;
        WireStream out;
        reply.Serialize(out);
        SendOnConnection(connection,
                         MakeFrame(MessageType::kSessionClosed, id, out));
        break;
      }
      case MessageType::kStatsRequest: {
        in.ExpectEnd();
        StatsResponse reply;
        const obs::MetricsSnapshot snapshot =
            obs::MetricsRegistry::Global().Snapshot();
        for (const obs::MetricSample& sample : snapshot.samples) {
          if (sample.kind != obs::MetricSample::Kind::kCounter) continue;
          reply.counters.emplace_back(sample.name,
                                      static_cast<uint64_t>(sample.value));
        }
        WireStream out;
        reply.Serialize(out);
        SendOnConnection(connection,
                         MakeFrame(MessageType::kStatsResponse, id, out));
        break;
      }
      case MessageType::kShutdown: {
        WireStream out;
        SendOnConnection(connection,
                         MakeFrame(MessageType::kShutdown, id, out));
        if (options_.allow_remote_shutdown) RequestStop();
        break;
      }
      default:
        MC_COUNTER("mc.srv.protocol_errors", 1);
        SendError(connection, id,
                  static_cast<uint32_t>(WireErrorCode::kBadRequest),
                  "message type is not a request");
        break;
    }
  } catch (const WireError& error) {
    MC_COUNTER("mc.srv.protocol_errors", 1);
    SendError(connection, id, static_cast<uint32_t>(WireErrorCode::kBadRequest),
              error.what());
    return false;
  }
  return true;
}

void Server::SendStepOutcome(Connection* connection, uint64_t request_id,
                             uint64_t session_id,
                             const Session::StepOutcome& outcome) {
  if (outcome.done) {
    SessionResultMessage reply;
    reply.session_id = session_id;
    reply.classifier = outcome.result.classifier;
    reply.probes = outcome.result.probes;
    reply.num_chains = outcome.result.num_chains;
    reply.sigma_error = outcome.result.sigma_error;
    WireStream out;
    reply.Serialize(out);
    SendOnConnection(connection,
                     MakeFrame(MessageType::kSessionResult, request_id, out));
  } else {
    SessionProbeMessage reply;
    reply.session_id = session_id;
    reply.indices = outcome.probe_indices;
    WireStream out;
    reply.Serialize(out);
    SendOnConnection(connection,
                     MakeFrame(MessageType::kSessionProbe, request_id, out));
  }
}

void Server::SendOnConnection(Connection* connection, const Frame& frame) {
  MutexLock lock(connection->write_mu);
  // Count before the send: once a client has *received* a response, that
  // response is guaranteed visible in a later stats snapshot, which keeps
  // mc.srv.frames_tx/bytes_tx bit-deterministic for the CI compare gate.
  MC_COUNTER("mc.srv.frames_tx", 1);
  MC_COUNTER("mc.srv.bytes_tx", kFrameOverheadBytes + frame.payload.size());
  SendFrame(connection->socket, frame);
}

void Server::SendError(Connection* connection, uint64_t request_id,
                       uint32_t code, const std::string& message) {
  MC_COUNTER("mc.srv.errors", 1);
  ErrorMessage error;
  error.code = code;
  error.message = message;
  WireStream out;
  error.Serialize(out);
  SendOnConnection(connection,
                   MakeFrame(MessageType::kError, request_id, out));
}

}  // namespace net
}  // namespace monoclass
