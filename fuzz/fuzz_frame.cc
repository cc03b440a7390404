// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Structure-aware differential harness over the frame and wire codecs
// (src/net/frame.h, src/net/wire.h) -- the byte surface monoclassd
// exposes to untrusted peers.
//
// Contract under fuzz:
//   * TryDecodeFrame on arbitrary bytes either returns a frame, asks
//     for more bytes, or throws WireError. It never crashes, never
//     allocates more than the input could justify, and never reports
//     progress without consuming bytes.
//   * A decoded frame re-encodes to the byte-identical prefix it was
//     decoded from (differential round-trip).
//   * Truncating a valid encoding anywhere yields "need more bytes";
//     corrupting its version field yields WireError (version skew must
//     error, not be ignored).
//   * Every typed message that parses from a decoded payload
//     re-serializes to a parse fixed point: parse(serialize(parse(x)))
//     == parse(x), byte-for-byte on the serialized form.
//   * Every passive-solve request that parses converts to the solver's
//     input (ToWeightedPointSet) without tripping a precondition.
//   * Every session-open request that parses opens a Session that runs
//     to completion on answers drawn from the payload's bytes, and
//     completes as the uninterrupted SolveActiveMultiD on those labels.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace fuzz {
namespace {

using net::Frame;
using net::MessageType;
using net::TryDecodeFrame;
using net::WireError;
using net::WireStream;

// Opens a Session as the server would on `request` and answers every
// probe batch until it completes, labelling point i with bit i of
// `answers` (cyclically). The result must be the uninterrupted solve.
void DriveSession(const net::SessionOpenRequest& request,
                  const std::vector<uint8_t>& answers) {
  if (request.algorithm != 0) return;  // refused by the Session
  const size_t n = request.points.size();
  std::vector<Label> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = (answers[(i / 8) % answers.size()] >> (i % 8)) & 1;
  }
  net::SessionOptions options;
  options.seed = request.seed;
  options.epsilon = request.epsilon;
  options.delta = request.delta;
  net::Session session(request.points, options);
  net::Session::StepOutcome outcome = session.Step({}, {});
  // Each step answers a non-empty batch of unanswered points.
  for (size_t steps = 0; !outcome.done; ++steps) {
    FuzzExpect(steps < n && !outcome.probe_indices.empty(), "session",
               "a fully answered session did not complete");
    std::vector<uint8_t> batch(outcome.probe_indices.size());
    for (size_t k = 0; k < batch.size(); ++k) {
      batch[k] = labels[static_cast<size_t>(outcome.probe_indices[k])];
    }
    outcome = session.Step(outcome.probe_indices, batch);
  }

  const LabeledPointSet truth(request.points, labels);
  InMemoryOracle oracle(truth);
  ActiveSolveOptions solve_options;
  solve_options.sampling =
      ActiveSamplingParams::Practical(request.epsilon, request.delta);
  solve_options.seed = request.seed;
  solve_options.parallel.threads = 1;
  const ActiveSolveResult reference =
      SolveActiveMultiD(truth.points(), oracle, solve_options);
  FuzzExpect(outcome.result.classifier.generators() ==
                     reference.classifier.generators() &&
                 outcome.result.probes == reference.probes &&
                 outcome.result.sigma_error == reference.sigma_error,
             "session", "stepped solve differs from the uninterrupted one");
}

// Parses `payload` as `type`; returns the canonical re-serialization,
// or nullopt when the payload is malformed for that type. Must never
// crash regardless of payload bytes.
std::optional<std::vector<uint8_t>> Reserialize(uint16_t type,
                                                const std::vector<uint8_t>&
                                                    payload) {
  try {
    WireStream in(payload);
    WireStream out;
    switch (static_cast<MessageType>(type)) {
      case MessageType::kPing:
      case MessageType::kPong:
        net::PingMessage::Unserialize(in).Serialize(out);
        break;
      case MessageType::kError:
        net::ErrorMessage::Unserialize(in).Serialize(out);
        break;
      case MessageType::kPassiveSolveRequest: {
        const net::PassiveSolveRequest request =
            net::PassiveSolveRequest::Unserialize(in);
        // The server hands every request that decodes to the solver, so
        // the conversion must accept it (a refused weight aborts here).
        net::ToWeightedPointSet(request);
        request.Serialize(out);
        break;
      }
      case MessageType::kPassiveSolveResult:
        net::PassiveSolveResult::Unserialize(in).Serialize(out);
        break;
      case MessageType::kSessionOpen: {
        const net::SessionOpenRequest request =
            net::SessionOpenRequest::Unserialize(in);
        // The server opens a session on every request that decodes in
        // full, so it must run to completion.
        in.ExpectEnd();
        DriveSession(request, payload);
        request.Serialize(out);
        break;
      }
      case MessageType::kSessionProbe:
        net::SessionProbeMessage::Unserialize(in).Serialize(out);
        break;
      case MessageType::kSessionStep:
        net::SessionStepRequest::Unserialize(in).Serialize(out);
        break;
      case MessageType::kSessionResult:
        net::SessionResultMessage::Unserialize(in).Serialize(out);
        break;
      case MessageType::kSessionClose:
        net::SessionCloseRequest::Unserialize(in).Serialize(out);
        break;
      case MessageType::kSessionClosed:
        net::SessionClosedMessage::Unserialize(in).Serialize(out);
        break;
      case MessageType::kStatsRequest:
        break;  // empty payload
      case MessageType::kStatsResponse:
        net::StatsResponse::Unserialize(in).Serialize(out);
        break;
      case MessageType::kShutdown:
        break;  // empty payload
    }
    in.ExpectEnd();
    return out.TakeBytes();
  } catch (const WireError&) {
    return std::nullopt;
  }
}

void CheckDecodedFrame(const Frame& frame, const std::vector<uint8_t>& bytes,
                       size_t consumed) {
  FuzzExpect(consumed >= net::kFrameOverheadBytes, "frame",
             "decoded a frame smaller than the fixed overhead");
  FuzzExpect(consumed <= bytes.size(), "frame",
             "consumed more bytes than exist");
  FuzzExpect(net::IsKnownMessageType(frame.type), "frame",
             "decoder produced an unknown message type");

  // Differential: re-encoding must reproduce the consumed prefix.
  const std::vector<uint8_t> reencoded = net::EncodeFrame(frame);
  FuzzExpect(reencoded.size() == consumed, "frame",
             "re-encoded size differs from consumed prefix");
  FuzzExpect(std::equal(reencoded.begin(), reencoded.end(), bytes.begin()),
             "frame", "re-encoding is not byte-identical");

  // Every truncation of the consumed prefix must ask for more bytes --
  // never a bogus frame, never a spurious error from a valid prefix.
  for (size_t cut = consumed - 1; cut + 8 > consumed && cut > 0; --cut) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    size_t sub_consumed = 1;
    const std::optional<Frame> sub = TryDecodeFrame(prefix, &sub_consumed);
    FuzzExpect(!sub.has_value(), "frame",
               "truncated frame still decoded");
    FuzzExpect(sub_consumed == 0, "frame",
               "truncated decode consumed bytes");
  }

  // Version skew must error.
  std::vector<uint8_t> skewed(bytes.begin(), bytes.begin() + consumed);
  skewed[4] ^= 0x7F;
  bool threw = false;
  try {
    size_t sub_consumed = 0;
    TryDecodeFrame(skewed, &sub_consumed);
  } catch (const WireError&) {
    threw = true;
  }
  FuzzExpect(threw, "frame", "version skew did not error");

  // Typed payloads that parse must reach a serialize/parse fixed point.
  const std::optional<std::vector<uint8_t>> canonical =
      Reserialize(frame.type, frame.payload);
  if (canonical.has_value()) {
    const std::optional<std::vector<uint8_t>> twice =
        Reserialize(frame.type, *canonical);
    FuzzExpect(twice.has_value(), "wire",
               "canonical form failed to re-parse");
    FuzzExpect(*twice == *canonical, "wire",
               "serialize/parse is not a fixed point");
  }
}

void FuzzOne(const uint8_t* data, size_t size) {
  const std::vector<uint8_t> bytes(data, data + size);

  // 1) Raw decode: frame, need-more, or WireError -- never a crash.
  try {
    size_t consumed = 0;
    const std::optional<Frame> frame = TryDecodeFrame(bytes, &consumed);
    if (frame.has_value()) {
      CheckDecodedFrame(*frame, bytes, consumed);
    } else {
      FuzzExpect(consumed == 0, "frame",
                 "need-more-bytes must not consume");
    }
  } catch (const WireError&) {
    // Expected on malformed input.
  }

  // 2) Wrap the input as the payload of each known type: the typed
  //    decoders must handle arbitrary payload bytes, and anything they
  //    accept must round-trip through a fixed point.
  if (bytes.size() <= 4096) {
    for (const uint16_t type : {1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13}) {
      const std::optional<std::vector<uint8_t>> canonical =
          Reserialize(type, bytes);
      if (!canonical.has_value()) continue;
      Frame frame;
      frame.type = type;
      frame.request_id = 0x12345678;
      frame.payload = *canonical;
      const std::vector<uint8_t> encoded = net::EncodeFrame(frame);
      size_t consumed = 0;
      const std::optional<Frame> decoded = TryDecodeFrame(encoded, &consumed);
      FuzzExpect(decoded.has_value() && consumed == encoded.size(), "frame",
                 "encoding of a canonical payload failed to decode");
      FuzzExpect(decoded->payload == frame.payload, "frame",
                 "payload corrupted in encode/decode");
    }
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
