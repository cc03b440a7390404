// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Wire serialization for the monoclassd protocol (docs/serving.md).
//
// WireStream is a CDataStream-style byte buffer: values are appended
// with operator<< and consumed in order with operator>>, every integer
// little-endian and every read bounds-checked. A malformed buffer --
// truncation, an element count larger than the bytes that could back
// it, a non-finite coordinate where one is not allowed -- raises
// WireError; decoding never aborts the process and never allocates
// more than the input could justify, which is the contract the
// fuzz_frame harness enforces byte-by-byte.
//
// Message structs pair Serialize(WireStream&) with a static
// Unserialize(WireStream&) factory. The `algorithm` fields are open
// enums on the wire (a u8 with named values) so a later solver -- e.g.
// the relative-approximation algorithm of arXiv 2506.10775 -- can be
// addressed without a frame version bump.

#ifndef MONOCLASS_NET_WIRE_H_
#define MONOCLASS_NET_WIRE_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"

namespace monoclass {
namespace net {

// Raised on any malformed wire input (and on attempts to encode
// something the protocol cannot carry, e.g. an oversized payload).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// Hard caps the decoder enforces before allocating anything.
inline constexpr uint32_t kMaxWireElements = 1u << 24;  // per vector
inline constexpr uint32_t kMaxWireDimension = 64;
inline constexpr uint32_t kMaxWireStringBytes = 1u << 20;

// Little-endian byte buffer with a read cursor.
class WireStream {
 public:
  WireStream() = default;
  explicit WireStream(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  // -- writing ------------------------------------------------------
  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteF64(double v);
  void WriteString(const std::string& v);  // u32 length + bytes

  // -- reading (throws WireError past the end) ----------------------
  uint8_t ReadU8();
  uint16_t ReadU16();
  uint32_t ReadU32();
  uint64_t ReadU64();
  double ReadF64();
  std::string ReadString();

  // Reads a u32 element count and validates that `min_element_bytes *
  // count` bytes remain, so a hostile count can never drive an
  // allocation larger than the input itself.
  uint32_t ReadCount(size_t min_element_bytes);

  size_t Remaining() const { return bytes_.size() - read_pos_; }
  bool AtEnd() const { return read_pos_ == bytes_.size(); }
  // Throws WireError unless every byte was consumed (trailing garbage
  // after a complete message is a protocol violation).
  void ExpectEnd() const;

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  void Require(size_t n) const;

  std::vector<uint8_t> bytes_;
  size_t read_pos_ = 0;
};

// Homogeneous vectors of fixed-width scalars.
void WriteU8Vector(WireStream& s, const std::vector<uint8_t>& v);
void WriteU64Vector(WireStream& s, const std::vector<uint64_t>& v);
void WriteF64Vector(WireStream& s, const std::vector<double>& v);
std::vector<uint8_t> ReadU8Vector(WireStream& s);
std::vector<uint64_t> ReadU64Vector(WireStream& s);
std::vector<double> ReadF64Vector(WireStream& s);

// Point sets travel as (dimension, count, row-major coordinates).
// Coordinates must be finite; Unserialize rejects NaN/inf.
void WritePointSet(WireStream& s, const PointSet& points);
PointSet ReadPointSet(WireStream& s);

// A classifier is its minimal generator antichain plus the ambient
// dimension (empty antichain = AlwaysZero).
void WriteClassifier(WireStream& s, const MonotoneClassifier& classifier);
MonotoneClassifier ReadClassifier(WireStream& s);

// ---------------------------------------------------------------------
// Message types. The numeric values are wire contract; append only.

enum class MessageType : uint16_t {
  kPing = 1,
  kPong = 2,
  kError = 3,
  kPassiveSolveRequest = 4,
  kPassiveSolveResult = 5,
  kSessionOpen = 6,
  kSessionProbe = 7,
  kSessionStep = 8,
  kSessionResult = 9,
  kSessionClose = 10,
  kSessionClosed = 11,
  kStatsRequest = 12,
  kStatsResponse = 13,
  kShutdown = 14,
};

// True iff `type` is a value this library knows how to parse.
bool IsKnownMessageType(uint16_t type);

// Error codes carried by ErrorMessage.
enum class WireErrorCode : uint32_t {
  kBadFrame = 1,
  kUnknownType = 2,
  kBadRequest = 3,
  kUnknownSession = 4,
  kSessionBusy = 5,
  kInternal = 6,
};

struct PingMessage {
  uint64_t nonce = 0;

  void Serialize(WireStream& s) const;
  static PingMessage Unserialize(WireStream& s);
};

struct ErrorMessage {
  uint32_t code = 0;
  std::string message;

  void Serialize(WireStream& s) const;
  static ErrorMessage Unserialize(WireStream& s);
};

// Passive algorithm selector (open enum; see header comment).
enum class WireSolverAlgorithm : uint8_t {
  kFlowExact = 0,  // the paper's Theorem 3 flow reduction
};

struct PassiveSolveRequest {
  PointSet points;
  std::vector<uint8_t> labels;   // size == points.size()
  std::vector<double> weights;   // empty = unweighted, else same size
  uint8_t algorithm = 0;         // WireSolverAlgorithm
  uint8_t reduce_to_contending = 1;

  void Serialize(WireStream& s) const;
  // Rejects, besides malformed bytes, every request the solver would
  // refuse: labels outside {0,1}, and weights that are not finite and
  // strictly positive.
  static PassiveSolveRequest Unserialize(WireStream& s);
};

// The solver's input for a decoded request: the given weights, or unit
// weights when `weights` is empty. Total on everything Unserialize
// accepts (fuzz_frame converts every request it decodes).
WeightedPointSet ToWeightedPointSet(const PassiveSolveRequest& request);

struct PassiveSolveResult {
  MonotoneClassifier classifier = MonotoneClassifier::AlwaysZero(1);
  double optimal_weighted_error = 0.0;
  uint64_t network_vertices = 0;
  uint64_t network_finite_edges = 0;
  uint8_t used_sparse_network = 0;

  void Serialize(WireStream& s) const;
  static PassiveSolveResult Unserialize(WireStream& s);
};

struct SessionOpenRequest {
  PointSet points;
  uint64_t seed = 1;
  double epsilon = 0.5;
  double delta = 0.01;
  uint8_t algorithm = 0;  // WireSolverAlgorithm (active side)

  void Serialize(WireStream& s) const;
  static SessionOpenRequest Unserialize(WireStream& s);
};

// Server -> client: the next batch of point indices to label.
struct SessionProbeMessage {
  uint64_t session_id = 0;
  std::vector<uint64_t> indices;

  void Serialize(WireStream& s) const;
  static SessionProbeMessage Unserialize(WireStream& s);
};

// Client -> server: answers for previously issued probe indices. A
// partial answer set is legal -- the server re-issues the remainder.
// Empty vectors resume an interrupted session (the server replies with
// the pending batch).
struct SessionStepRequest {
  uint64_t session_id = 0;
  std::vector<uint64_t> indices;
  std::vector<uint8_t> labels;  // same size as indices

  void Serialize(WireStream& s) const;
  static SessionStepRequest Unserialize(WireStream& s);
};

struct SessionResultMessage {
  uint64_t session_id = 0;
  MonotoneClassifier classifier = MonotoneClassifier::AlwaysZero(1);
  uint64_t probes = 0;
  uint64_t num_chains = 0;
  double sigma_error = 0.0;

  void Serialize(WireStream& s) const;
  static SessionResultMessage Unserialize(WireStream& s);
};

struct SessionCloseRequest {
  uint64_t session_id = 0;

  void Serialize(WireStream& s) const;
  static SessionCloseRequest Unserialize(WireStream& s);
};

struct SessionClosedMessage {
  uint64_t session_id = 0;
  uint8_t existed = 0;

  void Serialize(WireStream& s) const;
  static SessionClosedMessage Unserialize(WireStream& s);
};

// Counter snapshot of the server's metrics registry.
struct StatsResponse {
  std::vector<std::pair<std::string, uint64_t>> counters;

  void Serialize(WireStream& s) const;
  static StatsResponse Unserialize(WireStream& s);
};

}  // namespace net
}  // namespace monoclass

#endif  // MONOCLASS_NET_WIRE_H_
