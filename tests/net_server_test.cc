// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// In-process end-to-end tests: a real Server bound to an ephemeral
// loopback port, driven by the blocking Client over actual sockets.
// Covers the request/response surface (ping, passive solve, full
// sessions, stats, close, shutdown), cross-connection session resume,
// the error paths a remote peer can trigger, and the thread model: each
// frame is handled on its reader thread, at most `parallel` at once.

#include "net/server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "active/params.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "obs/obs.h"
#include "passive/flow_solver.h"
#include "test_util.h"
#include "util/sync_model.h"

namespace monoclass {
namespace net {
namespace {

LabeledPointSet MakeInstance(size_t n, uint64_t seed) {
  PlantedOptions options;
  options.num_points = n;
  options.dimension = 2;
  options.noise_flips = n / 10;
  options.seed = seed;
  return GeneratePlanted(options).data;
}

// Opens a session for `instance` and answers every probe batch fully
// until the server returns the result.
Client::SessionState DriveSession(Client& client,
                                  const LabeledPointSet& instance,
                                  uint64_t seed) {
  SessionOpenRequest open;
  open.points = instance.points();
  open.seed = seed;
  open.epsilon = 0.5;
  open.delta = 0.01;
  Client::SessionState state = client.OpenSession(open);
  while (!state.done) {
    std::vector<uint8_t> labels(state.probe_indices.size());
    for (size_t i = 0; i < state.probe_indices.size(); ++i) {
      labels[i] =
          instance.label(static_cast<size_t>(state.probe_indices[i]));
    }
    state = client.StepSession(state.session_id, state.probe_indices,
                               labels);
  }
  return state;
}

// The uninterrupted local solve a served session must reproduce.
ActiveSolveResult LocalActiveSolve(const LabeledPointSet& instance,
                                   uint64_t seed) {
  InMemoryOracle oracle(instance);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.01);
  options.seed = seed;
  options.parallel.threads = 1;
  return SolveActiveMultiD(instance.points(), oracle, options);
}

PassiveSolveRequest MakePassiveRequest(const LabeledPointSet& instance) {
  PassiveSolveRequest request;
  request.points = instance.points();
  request.labels = instance.labels();
  return request;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;  // ephemeral
    options.parallel.threads = 2;
    options.sessions.ttl_ms = 0;
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Start());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()));
  }

  void TearDown() override {
    client_.Disconnect();
    server_->Stop();
  }

  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(ServerTest, PingEchoesNonce) {
  EXPECT_EQ(client_.Ping(0xC0FFEE), 0xC0FFEEu);
  EXPECT_EQ(client_.Ping(7), 7u);
}

TEST_F(ServerTest, PassiveSolveMatchesLocalSolve) {
  const LabeledPointSet instance = MakeInstance(60, 5);
  const PassiveSolveResult remote =
      client_.PassiveSolve(MakePassiveRequest(instance));

  const ::monoclass::PassiveSolveResult local =
      SolvePassiveUnweighted(instance, PassiveSolveOptions{});
  EXPECT_EQ(remote.optimal_weighted_error, local.optimal_weighted_error);
  EXPECT_EQ(remote.classifier.generators(), local.classifier.generators());
}

TEST_F(ServerTest, FullSessionOverTheWireMatchesLocalActiveSolve) {
  const uint64_t seed = 9;
  const LabeledPointSet instance = MakeInstance(64, 21);
  const Client::SessionState state = DriveSession(client_, instance, seed);
  const ActiveSolveResult reference = LocalActiveSolve(instance, seed);

  EXPECT_EQ(state.result.classifier.generators(),
            reference.classifier.generators());
  EXPECT_EQ(state.result.probes, reference.probes);
}

TEST_F(ServerTest, SessionResumesAcrossConnections) {
  const LabeledPointSet instance = MakeInstance(64, 33);
  SessionOpenRequest open;
  open.points = instance.points();
  open.seed = 4;
  Client::SessionState state = client_.OpenSession(open);
  ASSERT_FALSE(state.done);
  const uint64_t session_id = state.session_id;
  const std::vector<uint64_t> pending = state.probe_indices;

  // Drop the connection mid-session; a second client picks the session
  // back up and asks for the pending batch with an empty answer set.
  client_.Disconnect();
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()));
  state = second.StepSession(session_id, {}, {});
  ASSERT_FALSE(state.done);
  EXPECT_EQ(state.probe_indices, pending);

  while (!state.done) {
    std::vector<uint8_t> labels(state.probe_indices.size());
    for (size_t i = 0; i < state.probe_indices.size(); ++i) {
      labels[i] =
          instance.label(static_cast<size_t>(state.probe_indices[i]));
    }
    state = second.StepSession(session_id, state.probe_indices, labels);
  }
  EXPECT_GT(state.result.probes, 0u);
  second.Disconnect();
}

TEST_F(ServerTest, UnknownSessionIsAnError) {
  try {
    client_.StepSession(999999, {}, {});
    FAIL() << "expected WireError";
  } catch (const WireError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown session"),
              std::string::npos);
  }
  // The error is a response, not a connection teardown.
  EXPECT_EQ(client_.Ping(1), 1u);
}

TEST_F(ServerTest, CloseSessionReportsExistence) {
  const LabeledPointSet instance = MakeInstance(32, 41);
  SessionOpenRequest open;
  open.points = instance.points();
  open.seed = 2;
  const Client::SessionState state = client_.OpenSession(open);
  ASSERT_FALSE(state.done);
  EXPECT_TRUE(client_.CloseSession(state.session_id));
  EXPECT_FALSE(client_.CloseSession(state.session_id));
  EXPECT_EQ(server_->sessions().NumActive(), 0u);
}

TEST_F(ServerTest, MalformedPayloadGetsErrorReply) {
  // A valid frame carrying an invalid request (an empty point set),
  // sent over a raw transport so the client-side validation in
  // Client::OpenSession cannot get in the way.
  Socket raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.valid());
  WireStream payload;
  // Hand-encode SessionOpenRequest: dimension 1, zero points, then the
  // scalar tail (seed, epsilon, delta, algorithm).
  payload.WriteU32(1);
  payload.WriteU32(0);
  payload.WriteU64(1);
  payload.WriteF64(0.5);
  payload.WriteF64(0.01);
  payload.WriteU8(0);
  Frame frame;
  frame.type = static_cast<uint16_t>(MessageType::kSessionOpen);
  frame.request_id = 77;
  frame.payload = payload.bytes();
  ASSERT_TRUE(SendFrame(raw, frame));
  const std::optional<Frame> reply = RecvFrame(raw);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, static_cast<uint16_t>(MessageType::kError));
  EXPECT_EQ(reply->request_id, 77u);
  WireStream in(reply->payload);
  const ErrorMessage error = ErrorMessage::Unserialize(in);
  EXPECT_EQ(error.code, static_cast<uint32_t>(WireErrorCode::kBadRequest));
  raw.Close();
}

TEST_F(ServerTest, UnknownPassiveAlgorithmGetsErrorReply) {
  // The wire decodes `algorithm` as an open enum, so this request is
  // well-formed; the server must refuse the solver it lacks instead of
  // answering with the flow solver.
  const LabeledPointSet instance = MakeInstance(20, 3);
  PassiveSolveRequest request;
  request.points = instance.points();
  request.labels = instance.labels();
  request.algorithm = 1;
  try {
    client_.PassiveSolve(request);
    FAIL() << "expected WireError";
  } catch (const WireError& error) {
    const std::string expected =
        "server error " +
        std::to_string(static_cast<uint32_t>(WireErrorCode::kBadRequest)) +
        ": unknown passive algorithm 1";
    EXPECT_EQ(std::string(error.what()), expected);
  }
}

TEST_F(ServerTest, ZeroWeightPassiveRequestGetsErrorReply) {
  // A zero weight must get a typed error and leave the server serving;
  // reaching WeightedPointSet::Add would abort the daemon.
  const LabeledPointSet instance = MakeInstance(2, 3);
  PassiveSolveRequest request = MakePassiveRequest(instance);
  request.weights = {1.0, 0.0};
  try {
    client_.PassiveSolve(request);
    FAIL() << "expected WireError";
  } catch (const WireError& error) {
    const std::string expected =
        "server error " +
        std::to_string(static_cast<uint32_t>(WireErrorCode::kBadRequest)) +
        ": bad weight";
    EXPECT_EQ(std::string(error.what()), expected);
  }
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server_->port()));
  EXPECT_EQ(fresh.Ping(11), 11u);
  fresh.Disconnect();
}

TEST_F(ServerTest, StatsReportServerCounters) {
  // Counters only record when obs is on (monoclassd enables it at boot).
  obs::SetEnabled(true);
  client_.Ping(1);
  const StatsResponse stats = client_.FetchStats();
  obs::SetEnabled(false);
  uint64_t requests = 0;
  for (const auto& [name, value] : stats.counters) {
    if (name == "mc.srv.requests") requests = value;
  }
  EXPECT_GE(requests, 1u);
}

TEST_F(ServerTest, FramesRunOnTheirReaderThread) {
  // A frame is handled on the thread that read it, and every solve it
  // starts is serial: neither a handler hop nor a solver fan-out reaches
  // a pool.
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(client_.Ping(5), 5u);
  client_.PassiveSolve(MakePassiveRequest(MakeInstance(200, 7)));
  DriveSession(client_, MakeInstance(200, 7), 3);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  obs::SetEnabled(false);
  EXPECT_GE(snapshot.CounterValue("mc.srv.requests"), 4u);
  EXPECT_EQ(snapshot.CounterValue("mc.pool.tasks"), 0u);
}

TEST(ServerSlotsTest, MoreClientsThanHandlerSlots) {
  // Four clients share one handler slot: readers queue for it, and every
  // answer is still the local solve's.
  ServerOptions options;
  options.port = 0;
  options.parallel.threads = 1;
  options.sessions.ttl_ms = 0;
  Server server(options);
  ASSERT_TRUE(server.Start());
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();

  constexpr size_t kClients = 4;
  constexpr size_t kSessionsPerClient = 3;
  struct ClientRun {
    std::vector<LabeledPointSet> instances;
    std::vector<Client::SessionState> sessions;
    PassiveSolveResult passive;
    std::string error;
  };
  std::vector<ClientRun> runs(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t s = 0; s <= kSessionsPerClient; ++s) {
      runs[c].instances.push_back(MakeInstance(40 + 8 * s, 50 + 10 * c + s));
    }
  }
  std::vector<mc::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &run = runs[c], c] {
      try {
        Client client;
        if (!client.Connect("127.0.0.1", server.port())) {
          run.error = "connect failed";
          return;
        }
        for (size_t s = 0; s < kSessionsPerClient; ++s) {
          run.sessions.push_back(
              DriveSession(client, run.instances[s], 100 * c + s));
        }
        run.passive = client.PassiveSolve(
            MakePassiveRequest(run.instances[kSessionsPerClient]));
        client.Disconnect();
      } catch (const WireError& error) {
        run.error = error.what();
      }
    });
  }
  for (mc::thread& client : clients) client.join();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  obs::SetEnabled(false);
  server.Stop();

  for (size_t c = 0; c < kClients; ++c) {
    const ClientRun& run = runs[c];
    ASSERT_EQ(run.error, "") << "client " << c;
    ASSERT_EQ(run.sessions.size(), kSessionsPerClient);
    for (size_t s = 0; s < kSessionsPerClient; ++s) {
      const ActiveSolveResult local =
          LocalActiveSolve(run.instances[s], 100 * c + s);
      EXPECT_EQ(run.sessions[s].result.classifier.generators(),
                local.classifier.generators())
          << "client " << c << " session " << s;
      EXPECT_EQ(run.sessions[s].result.probes, local.probes)
          << "client " << c << " session " << s;
    }
    const ::monoclass::PassiveSolveResult local = SolvePassiveUnweighted(
        run.instances[kSessionsPerClient], PassiveSolveOptions{});
    EXPECT_EQ(run.passive.optimal_weighted_error,
              local.optimal_weighted_error)
        << "client " << c;
    EXPECT_EQ(run.passive.classifier.generators(),
              local.classifier.generators())
        << "client " << c;
  }
  // Every handled frame waited for its slot exactly once.
  const obs::MetricSample* slot_wait = snapshot.Find("mc.lat.srv_slot_wait");
  ASSERT_NE(slot_wait, nullptr);
  EXPECT_GT(slot_wait->count, 0u);
  EXPECT_EQ(slot_wait->count, snapshot.CounterValue("mc.srv.requests"));
}

TEST_F(ServerTest, RemoteShutdownUnblocksWait) {
  client_.Shutdown();
  server_->Wait();  // must return promptly instead of hanging
  SUCCEED();
}

TEST(ServerNoRemoteShutdownTest, ShutdownFrameIsIgnoredWhenDisabled) {
  ServerOptions options;
  options.port = 0;
  options.allow_remote_shutdown = false;
  options.sessions.ttl_ms = 0;
  Server server(options);
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  client.Shutdown();          // acked but not honored
  EXPECT_EQ(client.Ping(3), 3u);  // still serving
  client.Disconnect();
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace monoclass
