// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// monoclassd: the classification-as-a-service daemon (docs/serving.md).
//
// A thin main around net::Server: parse flags, bind, print/record the
// chosen port, serve until a kShutdown frame arrives (tools/mc_loadgen
// sends one with --shutdown) or the process is killed. Observability is
// on by default -- the mc.srv.* counters are the daemon's product as
// much as the responses are; mc_loadgen fetches them over the Stats
// endpoint into its BENCH_SERVE report. --telemetry-dump additionally
// publishes the live exposition that mc_top renders.
//
//   monoclassd --port 0 --port-file /tmp/mc.port --threads 4
//   mc_top --once <dump>   # when started with --telemetry-dump <dump>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>

#include "monoclass.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host H               bind address (default 127.0.0.1)\n"
      "  --port P               TCP port; 0 picks an ephemeral port\n"
      "  --port-file PATH       write the bound port to PATH (for CI)\n"
      "  --threads N            frames handled at once (0 = hardware)\n"
      "  --session-capacity N   max live sessions before LRU eviction\n"
      "  --session-ttl-ms N     idle session expiry; 0 disables (CI)\n"
      "  --no-remote-shutdown   ignore kShutdown frames\n"
      "  --telemetry-dump PATH  live metrics exposition for mc_top\n"
      "  --telemetry-interval-ms N   exposition refresh (default 250)\n",
      argv0);
}

// Parses all of `text` as a T no smaller than `lo`; anything else
// (trailing characters, a sign on an unsigned flag, a value outside T or
// below `lo`) exits 2.
template <typename T>
T ParseNumber(const char* flag, const char* text,
              T lo = std::numeric_limits<T>::min()) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo) {
    std::fprintf(stderr, "monoclassd: invalid value '%s' for %s\n", text,
                 flag);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using monoclass::net::Server;
  using monoclass::net::ServerOptions;

  ServerOptions options;
  options.sessions.ttl_ms = 300000;
  std::string port_file;
  std::string telemetry_path;
  int telemetry_interval_ms = 250;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "monoclassd: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      options.host = next("--host");
    } else if (arg == "--port") {
      options.port = ParseNumber<uint16_t>("--port", next("--port"));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--threads") {
      options.parallel.threads =
          ParseNumber<size_t>("--threads", next("--threads"));
    } else if (arg == "--session-capacity") {
      options.sessions.capacity = ParseNumber<size_t>(
          "--session-capacity", next("--session-capacity"));
    } else if (arg == "--session-ttl-ms") {
      options.sessions.ttl_ms =
          ParseNumber<int64_t>("--session-ttl-ms", next("--session-ttl-ms"));
    } else if (arg == "--no-remote-shutdown") {
      options.allow_remote_shutdown = false;
    } else if (arg == "--telemetry-dump") {
      telemetry_path = next("--telemetry-dump");
    } else if (arg == "--telemetry-interval-ms") {
      telemetry_interval_ms = ParseNumber<int>(
          "--telemetry-interval-ms", next("--telemetry-interval-ms"), 1);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "monoclassd: unknown flag %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  monoclass::obs::SetEnabled(true);
  if (!telemetry_path.empty()) {
    monoclass::obs::StartFlightRecording();
    monoclass::obs::StartTelemetry(telemetry_path, telemetry_interval_ms);
  }

  Server server(options);
  if (!server.Start()) {
    std::fprintf(stderr, "monoclassd: cannot bind %s:%u\n",
                 options.host.c_str(), options.port);
    return 1;
  }
  std::printf("monoclassd listening on %s:%u\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }

  server.Wait();
  std::printf("monoclassd: shutdown requested, draining\n");
  std::fflush(stdout);
  server.Stop();
  if (!telemetry_path.empty()) {
    monoclass::obs::StopTelemetry();
  }
  std::printf("monoclassd: stopped\n");
  return 0;
}
