// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Frame and wire codec tests: round-trips for every message type, the
// incremental frame decoder's three-way contract (frame / need-more /
// WireError), and the adversarial inputs the decoder must reject
// without crashing or over-allocating (truncation, bad magic, version
// skew, oversized lengths, checksum corruption, hostile counts).

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "net/frame.h"
#include "test_util.h"

namespace monoclass {
namespace net {
namespace {

PointSet SmallPoints() {
  PointSet points;
  points.Add(Point{0.0, 1.0});
  points.Add(Point{1.0, 0.0});
  points.Add(Point{2.0, 2.0});
  return points;
}

// ---------------------------------------------------------------- streams

TEST(WireStreamTest, ScalarRoundTrip) {
  WireStream s;
  s.WriteU8(7);
  s.WriteU16(0xBEEF);
  s.WriteU32(0xDEADBEEF);
  s.WriteU64(0x0123456789ABCDEFull);
  s.WriteF64(-2.5);
  s.WriteString("hello");
  EXPECT_EQ(s.ReadU8(), 7u);
  EXPECT_EQ(s.ReadU16(), 0xBEEFu);
  EXPECT_EQ(s.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(s.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(s.ReadF64(), -2.5);
  EXPECT_EQ(s.ReadString(), "hello");
  EXPECT_TRUE(s.AtEnd());
  EXPECT_NO_THROW(s.ExpectEnd());
}

TEST(WireStreamTest, LittleEndianLayout) {
  WireStream s;
  s.WriteU32(0x04030201u);
  ASSERT_EQ(s.bytes().size(), 4u);
  EXPECT_EQ(s.bytes()[0], 0x01);
  EXPECT_EQ(s.bytes()[3], 0x04);
}

TEST(WireStreamTest, ReadPastEndThrows) {
  WireStream s;
  s.WriteU16(1);
  s.ReadU8();
  s.ReadU8();
  EXPECT_THROW(s.ReadU8(), WireError);
}

TEST(WireStreamTest, TrailingGarbageThrows) {
  WireStream s;
  s.WriteU16(1);
  s.ReadU8();
  EXPECT_THROW(s.ExpectEnd(), WireError);
}

TEST(WireStreamTest, HostileCountCannotDriveAllocation) {
  // A u32 count of 2^24 elements with no bytes behind it must be
  // rejected by ReadCount before any allocation.
  WireStream s;
  s.WriteU32(kMaxWireElements);
  EXPECT_THROW(s.ReadCount(8), WireError);
}

TEST(WireStreamTest, OversizedStringRejected) {
  WireStream s;
  s.WriteU32(kMaxWireStringBytes + 1);
  EXPECT_THROW(s.ReadString(), WireError);
}

TEST(WireVectorTest, RoundTrips) {
  WireStream s;
  WriteU8Vector(s, {0, 1, 1, 0});
  WriteU64Vector(s, {42, 0, ~0ull});
  WriteF64Vector(s, {0.5, -1.25});
  EXPECT_EQ(ReadU8Vector(s), (std::vector<uint8_t>{0, 1, 1, 0}));
  EXPECT_EQ(ReadU64Vector(s), (std::vector<uint64_t>{42, 0, ~0ull}));
  EXPECT_EQ(ReadF64Vector(s), (std::vector<double>{0.5, -1.25}));
  EXPECT_TRUE(s.AtEnd());
}

TEST(WirePointSetTest, RoundTrip) {
  const PointSet points = SmallPoints();
  WireStream s;
  WritePointSet(s, points);
  const PointSet decoded = ReadPointSet(s);
  ASSERT_EQ(decoded.size(), points.size());
  ASSERT_EQ(decoded.dimension(), points.dimension());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(decoded[i], points[i]);
  }
}

TEST(WirePointSetTest, NonFiniteCoordinateRejected) {
  PointSet points;
  points.Add(Point{1.0});
  WireStream s;
  WritePointSet(s, points);
  // Patch the single coordinate to NaN in the encoded bytes.
  std::vector<uint8_t> bytes = s.TakeBytes();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + bytes.size() - 8, &nan, 8);
  WireStream corrupted(bytes);
  EXPECT_THROW(ReadPointSet(corrupted), WireError);
}

TEST(WireClassifierTest, RoundTripsIncludingSentinels) {
  // AlwaysOne's generator is -infinity^d: the classifier codec must
  // accept infinities (only NaN is malformed).
  for (const MonotoneClassifier& classifier :
       {MonotoneClassifier::AlwaysZero(3), MonotoneClassifier::AlwaysOne(3),
        MonotoneClassifier::FromGenerators({Point{1.0, 2.0}, Point{2.0, 1.0}},
                                           2)}) {
    WireStream s;
    WriteClassifier(s, classifier);
    const MonotoneClassifier decoded = ReadClassifier(s);
    EXPECT_EQ(decoded.dimension(), classifier.dimension());
    EXPECT_EQ(decoded.generators(), classifier.generators());
  }
}

// --------------------------------------------------------------- messages

TEST(WireMessageTest, PassiveSolveRequestRoundTrip) {
  PassiveSolveRequest request;
  request.points = SmallPoints();
  request.labels = {1, 0, 1};
  request.weights = {1.0, 2.0, 0.5};
  request.reduce_to_contending = 0;
  WireStream s;
  request.Serialize(s);
  const PassiveSolveRequest decoded = PassiveSolveRequest::Unserialize(s);
  s.ExpectEnd();
  EXPECT_EQ(decoded.labels, request.labels);
  EXPECT_EQ(decoded.weights, request.weights);
  EXPECT_EQ(decoded.reduce_to_contending, 0);
  EXPECT_EQ(decoded.points.size(), 3u);
}

TEST(WireMessageTest, PassiveSolveRequestRejectsBadLabel) {
  PassiveSolveRequest request;
  request.points = SmallPoints();
  request.labels = {1, 2, 0};  // 2 is not a label
  WireStream s;
  request.Serialize(s);
  EXPECT_THROW(PassiveSolveRequest::Unserialize(s), WireError);
}

TEST(WireMessageTest, PassiveSolveRequestRejectsNonPositiveWeight) {
  // The passive solvers refuse weights at or below kFlowEps = 1e-9, so a
  // zero weight -- either sign -- and a weight at the floor must fail
  // decoding rather than reach the solver.
  for (const double bad : {0.0, -0.0, 1e-9}) {
    PassiveSolveRequest request;
    request.points = SmallPoints();
    request.labels = {1, 0, 1};
    request.weights = {1.0, bad, 0.5};
    WireStream s;
    request.Serialize(s);
    EXPECT_THROW(PassiveSolveRequest::Unserialize(s), WireError) << bad;
  }
}

TEST(WireMessageTest, SessionMessagesRoundTrip) {
  SessionOpenRequest open;
  open.points = SmallPoints();
  open.seed = 99;
  open.epsilon = 0.25;
  open.delta = 0.125;
  WireStream s1;
  open.Serialize(s1);
  const SessionOpenRequest open2 = SessionOpenRequest::Unserialize(s1);
  EXPECT_EQ(open2.seed, 99u);
  EXPECT_EQ(open2.epsilon, 0.25);

  SessionStepRequest step;
  step.session_id = 5;
  step.indices = {2, 0};
  step.labels = {1, 0};
  WireStream s2;
  step.Serialize(s2);
  const SessionStepRequest step2 = SessionStepRequest::Unserialize(s2);
  EXPECT_EQ(step2.session_id, 5u);
  EXPECT_EQ(step2.indices, step.indices);
  EXPECT_EQ(step2.labels, step.labels);

  SessionResultMessage result;
  result.session_id = 5;
  result.classifier = MonotoneClassifier::AlwaysOne(2);
  result.probes = 17;
  result.num_chains = 3;
  result.sigma_error = 1.5;
  WireStream s3;
  result.Serialize(s3);
  const SessionResultMessage result2 = SessionResultMessage::Unserialize(s3);
  EXPECT_EQ(result2.probes, 17u);
  EXPECT_EQ(result2.classifier.generators(), result.classifier.generators());
}

TEST(WireMessageTest, SessionOpenRejectsUnderflowingParameters) {
  // delta = 5e-324 once aborted the daemon: delta / w underflowed to 0.
  // Below kMinWireSessionParameter the decoder refuses either parameter;
  // eps = 1e-9 (whose sample sizes overflow size_t) decodes.
  const auto decodes = [](double epsilon, double delta) {
    SessionOpenRequest open;
    open.points = SmallPoints();
    open.epsilon = epsilon;
    open.delta = delta;
    WireStream s;
    open.Serialize(s);
    try {
      SessionOpenRequest::Unserialize(s);
      return true;
    } catch (const WireError&) {
      return false;
    }
  };
  EXPECT_FALSE(decodes(0.5, 5e-324));
  EXPECT_FALSE(decodes(0.5, 1e-101));
  EXPECT_FALSE(decodes(5e-324, 0.01));
  EXPECT_FALSE(decodes(1e-101, 0.01));
  EXPECT_TRUE(decodes(kMinWireSessionParameter, kMinWireSessionParameter));
  EXPECT_TRUE(decodes(1e-9, 0.01));
}

TEST(WireMessageTest, StepRequestRejectsMismatchedArrays) {
  // Serialize refuses to encode the mismatch...
  SessionStepRequest step;
  step.indices = {1, 2};
  step.labels = {1};
  WireStream refused;
  EXPECT_THROW(step.Serialize(refused), WireError);

  // ...and Unserialize rejects a hand-encoded one.
  WireStream s;
  s.WriteU64(5);                 // session_id
  WriteU64Vector(s, {1, 2});     // two indices
  WriteU8Vector(s, {1});         // one label
  EXPECT_THROW(SessionStepRequest::Unserialize(s), WireError);
}

TEST(WireMessageTest, StatsResponseRoundTrip) {
  StatsResponse stats;
  stats.counters.emplace_back("mc.srv.requests", 12u);
  stats.counters.emplace_back("mc.srv.frames_rx", 13u);
  WireStream s;
  stats.Serialize(s);
  const StatsResponse decoded = StatsResponse::Unserialize(s);
  ASSERT_EQ(decoded.counters.size(), 2u);
  EXPECT_EQ(decoded.counters[0].first, "mc.srv.requests");
  EXPECT_EQ(decoded.counters[1].second, 13u);
}

// ----------------------------------------------------------------- frames

Frame MakePing(uint64_t nonce, uint64_t request_id) {
  PingMessage ping;
  ping.nonce = nonce;
  WireStream s;
  ping.Serialize(s);
  Frame frame;
  frame.type = static_cast<uint16_t>(MessageType::kPing);
  frame.request_id = request_id;
  frame.payload = s.bytes();
  return frame;
}

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const Frame frame = MakePing(0xABCDEF, 42);
  const std::vector<uint8_t> encoded = EncodeFrame(frame);
  EXPECT_EQ(encoded.size(), kFrameOverheadBytes + frame.payload.size());
  size_t consumed = 0;
  const std::optional<Frame> decoded = TryDecodeFrame(encoded, &consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(consumed, encoded.size());
  EXPECT_EQ(decoded->type, frame.type);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(FrameTest, EveryTruncationAsksForMoreBytes) {
  const std::vector<uint8_t> encoded = EncodeFrame(MakePing(7, 1));
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    const std::vector<uint8_t> prefix(encoded.begin(),
                                      encoded.begin() + cut);
    size_t consumed = 99;
    const std::optional<Frame> decoded = TryDecodeFrame(prefix, &consumed);
    EXPECT_FALSE(decoded.has_value()) << "cut=" << cut;
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
}

TEST(FrameTest, BadMagicThrowsEvenOnShortPrefix) {
  std::vector<uint8_t> bytes = {0x4D, 0x43, 0x58};  // "MCX..."
  size_t consumed = 0;
  EXPECT_THROW(TryDecodeFrame(bytes, &consumed), WireError);
}

TEST(FrameTest, VersionSkewMustError) {
  std::vector<uint8_t> encoded = EncodeFrame(MakePing(7, 1));
  encoded[4] = 2;  // version 2 does not exist
  size_t consumed = 0;
  EXPECT_THROW(TryDecodeFrame(encoded, &consumed), WireError);
}

TEST(FrameTest, UnknownTypeRejected) {
  std::vector<uint8_t> encoded = EncodeFrame(MakePing(7, 1));
  encoded[6] = 0xFF;
  encoded[7] = 0xFF;
  size_t consumed = 0;
  EXPECT_THROW(TryDecodeFrame(encoded, &consumed), WireError);
}

TEST(FrameTest, OversizedLengthRejectedBeforeAllocation) {
  std::vector<uint8_t> encoded = EncodeFrame(MakePing(7, 1));
  // Patch payload_len to just over the cap. The decoder must throw from
  // the header alone, without waiting for (or allocating) 64 MiB.
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(encoded.data() + 16, &huge, 4);
  encoded.resize(kFrameHeaderBytes);
  size_t consumed = 0;
  EXPECT_THROW(TryDecodeFrame(encoded, &consumed), WireError);
}

TEST(FrameTest, ChecksumCorruptionDetected) {
  std::vector<uint8_t> encoded = EncodeFrame(MakePing(7, 1));
  encoded[kFrameHeaderBytes] ^= 0x01;  // flip one payload bit
  size_t consumed = 0;
  EXPECT_THROW(TryDecodeFrame(encoded, &consumed), WireError);
}

TEST(FrameTest, DecodesFirstFrameOfConcatenation) {
  const std::vector<uint8_t> first = EncodeFrame(MakePing(1, 10));
  const std::vector<uint8_t> second = EncodeFrame(MakePing(2, 11));
  std::vector<uint8_t> both = first;
  both.insert(both.end(), second.begin(), second.end());
  size_t consumed = 0;
  const std::optional<Frame> decoded = TryDecodeFrame(both, &consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(decoded->request_id, 10u);
}

TEST(FrameTest, EncodeRejectsOversizedPayload) {
  Frame frame;
  frame.type = static_cast<uint16_t>(MessageType::kPing);
  // Don't actually allocate 64 MiB+: size() is what EncodeFrame checks,
  // so a small vector resized past the cap would be expensive; instead
  // check the boundary just above via a real (one-time) allocation.
  frame.payload.resize(kMaxFramePayloadBytes + 1);
  EXPECT_THROW(EncodeFrame(frame), WireError);
}

TEST(FrameTest, Crc32KnownAnswer) {
  // CRC-32("123456789") = 0xCBF43926 -- the IEEE 802.3 check value.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
}

}  // namespace
}  // namespace net
}  // namespace monoclass
