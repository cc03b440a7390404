// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "net/wire.h"

#include <cmath>
#include <cstring>

namespace monoclass {
namespace net {
namespace {

uint64_t DoubleToBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ReadFiniteF64(WireStream& s, const char* what) {
  const double v = s.ReadF64();
  if (!std::isfinite(v)) {
    throw WireError(std::string("non-finite ") + what);
  }
  return v;
}

// Generator coordinates may legitimately be infinite (AlwaysOne stores
// the generator -infinity^d); only NaN is rejected.
double ReadNonNanF64(WireStream& s, const char* what) {
  const double v = s.ReadF64();
  if (std::isnan(v)) {
    throw WireError(std::string("NaN ") + what);
  }
  return v;
}

}  // namespace

void WireStream::Require(size_t n) const {
  if (Remaining() < n) {
    throw WireError("wire underflow: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(Remaining()));
  }
}

void WireStream::WriteU8(uint8_t v) { bytes_.push_back(v); }

void WireStream::WriteU16(uint16_t v) {
  bytes_.push_back(static_cast<uint8_t>(v));
  bytes_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireStream::WriteU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void WireStream::WriteU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void WireStream::WriteF64(double v) { WriteU64(DoubleToBits(v)); }

void WireStream::WriteString(const std::string& v) {
  if (v.size() > kMaxWireStringBytes) {
    throw WireError("string exceeds wire limit");
  }
  WriteU32(static_cast<uint32_t>(v.size()));
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

uint8_t WireStream::ReadU8() {
  Require(1);
  return bytes_[read_pos_++];
}

uint16_t WireStream::ReadU16() {
  Require(2);
  uint16_t v = 0;
  v |= static_cast<uint16_t>(bytes_[read_pos_]);
  v |= static_cast<uint16_t>(bytes_[read_pos_ + 1]) << 8;
  read_pos_ += 2;
  return v;
}

uint32_t WireStream::ReadU32() {
  Require(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes_[read_pos_ + i]) << (8 * i);
  }
  read_pos_ += 4;
  return v;
}

uint64_t WireStream::ReadU64() {
  Require(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes_[read_pos_ + i]) << (8 * i);
  }
  read_pos_ += 8;
  return v;
}

double WireStream::ReadF64() { return BitsToDouble(ReadU64()); }

std::string WireStream::ReadString() {
  const uint32_t size = ReadU32();
  if (size > kMaxWireStringBytes) {
    throw WireError("string length exceeds wire limit");
  }
  Require(size);
  std::string out(bytes_.begin() + static_cast<ptrdiff_t>(read_pos_),
                  bytes_.begin() + static_cast<ptrdiff_t>(read_pos_ + size));
  read_pos_ += size;
  return out;
}

uint32_t WireStream::ReadCount(size_t min_element_bytes) {
  const uint32_t count = ReadU32();
  if (count > kMaxWireElements) {
    throw WireError("element count exceeds wire limit");
  }
  if (min_element_bytes > 0 &&
      static_cast<uint64_t>(count) * min_element_bytes > Remaining()) {
    throw WireError("element count larger than remaining payload");
  }
  return count;
}

void WireStream::ExpectEnd() const {
  if (!AtEnd()) {
    throw WireError("trailing bytes after message (" +
                    std::to_string(Remaining()) + ")");
  }
}

void WriteU8Vector(WireStream& s, const std::vector<uint8_t>& v) {
  if (v.size() > kMaxWireElements) throw WireError("vector too large");
  s.WriteU32(static_cast<uint32_t>(v.size()));
  for (const uint8_t x : v) s.WriteU8(x);
}

void WriteU64Vector(WireStream& s, const std::vector<uint64_t>& v) {
  if (v.size() > kMaxWireElements) throw WireError("vector too large");
  s.WriteU32(static_cast<uint32_t>(v.size()));
  for (const uint64_t x : v) s.WriteU64(x);
}

void WriteF64Vector(WireStream& s, const std::vector<double>& v) {
  if (v.size() > kMaxWireElements) throw WireError("vector too large");
  s.WriteU32(static_cast<uint32_t>(v.size()));
  for (const double x : v) s.WriteF64(x);
}

std::vector<uint8_t> ReadU8Vector(WireStream& s) {
  const uint32_t count = s.ReadCount(1);
  std::vector<uint8_t> out(count);
  for (uint32_t i = 0; i < count; ++i) out[i] = s.ReadU8();
  return out;
}

std::vector<uint64_t> ReadU64Vector(WireStream& s) {
  const uint32_t count = s.ReadCount(8);
  std::vector<uint64_t> out(count);
  for (uint32_t i = 0; i < count; ++i) out[i] = s.ReadU64();
  return out;
}

std::vector<double> ReadF64Vector(WireStream& s) {
  const uint32_t count = s.ReadCount(8);
  std::vector<double> out(count);
  for (uint32_t i = 0; i < count; ++i) out[i] = s.ReadF64();
  return out;
}

void WritePointSet(WireStream& s, const PointSet& points) {
  const size_t dim = points.dimension();
  if (dim == 0 || dim > kMaxWireDimension) {
    throw WireError("point set dimension outside wire range");
  }
  if (points.size() > kMaxWireElements) throw WireError("point set too large");
  s.WriteU32(static_cast<uint32_t>(dim));
  s.WriteU32(static_cast<uint32_t>(points.size()));
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t d = 0; d < dim; ++d) s.WriteF64(points[i][d]);
  }
}

PointSet ReadPointSet(WireStream& s) {
  const uint32_t dim = s.ReadU32();
  if (dim == 0 || dim > kMaxWireDimension) {
    throw WireError("point set dimension outside wire range");
  }
  const uint32_t count = s.ReadCount(8 * static_cast<size_t>(dim));
  PointSet points;
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<double> coords(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      coords[d] = ReadFiniteF64(s, "coordinate");
    }
    points.Add(Point(std::move(coords)));
  }
  return points;
}

void WriteClassifier(WireStream& s, const MonotoneClassifier& classifier) {
  const size_t dim = classifier.dimension();
  if (dim == 0 || dim > kMaxWireDimension) {
    throw WireError("classifier dimension outside wire range");
  }
  const std::vector<Point>& generators = classifier.generators();
  if (generators.size() > kMaxWireElements) {
    throw WireError("generator antichain too large");
  }
  s.WriteU32(static_cast<uint32_t>(dim));
  s.WriteU32(static_cast<uint32_t>(generators.size()));
  for (const Point& g : generators) {
    for (size_t d = 0; d < dim; ++d) s.WriteF64(g[d]);
  }
}

MonotoneClassifier ReadClassifier(WireStream& s) {
  const uint32_t dim = s.ReadU32();
  if (dim == 0 || dim > kMaxWireDimension) {
    throw WireError("classifier dimension outside wire range");
  }
  const uint32_t count = s.ReadCount(8 * static_cast<size_t>(dim));
  std::vector<Point> generators;
  generators.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<double> coords(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      coords[d] = ReadNonNanF64(s, "generator coordinate");
    }
    generators.emplace_back(std::move(coords));
  }
  return MonotoneClassifier::FromGenerators(std::move(generators), dim);
}

bool IsKnownMessageType(uint16_t type) {
  return type >= static_cast<uint16_t>(MessageType::kPing) &&
         type <= static_cast<uint16_t>(MessageType::kShutdown);
}

// ---------------------------------------------------------------------

void PingMessage::Serialize(WireStream& s) const { s.WriteU64(nonce); }

PingMessage PingMessage::Unserialize(WireStream& s) {
  PingMessage m;
  m.nonce = s.ReadU64();
  return m;
}

void ErrorMessage::Serialize(WireStream& s) const {
  s.WriteU32(code);
  s.WriteString(message);
}

ErrorMessage ErrorMessage::Unserialize(WireStream& s) {
  ErrorMessage m;
  m.code = s.ReadU32();
  m.message = s.ReadString();
  return m;
}

void PassiveSolveRequest::Serialize(WireStream& s) const {
  if (labels.size() != points.size()) {
    throw WireError("labels/points size mismatch");
  }
  if (!weights.empty() && weights.size() != points.size()) {
    throw WireError("weights/points size mismatch");
  }
  WritePointSet(s, points);
  WriteU8Vector(s, labels);
  WriteF64Vector(s, weights);
  s.WriteU8(algorithm);
  s.WriteU8(reduce_to_contending);
}

PassiveSolveRequest PassiveSolveRequest::Unserialize(WireStream& s) {
  PassiveSolveRequest m;
  m.points = ReadPointSet(s);
  m.labels = ReadU8Vector(s);
  m.weights = ReadF64Vector(s);
  m.algorithm = s.ReadU8();
  m.reduce_to_contending = s.ReadU8();
  if (m.points.size() == 0) throw WireError("empty point set");
  if (m.labels.size() != m.points.size()) {
    throw WireError("labels/points size mismatch");
  }
  for (const uint8_t label : m.labels) {
    if (label > 1) throw WireError("label outside {0,1}");
  }
  if (!m.weights.empty() && m.weights.size() != m.points.size()) {
    throw WireError("weights/points size mismatch");
  }
  for (const double w : m.weights) {
    if (!std::isfinite(w) || !(w > 0.0)) throw WireError("bad weight");
  }
  return m;
}

WeightedPointSet ToWeightedPointSet(const PassiveSolveRequest& request) {
  WeightedPointSet weighted;
  for (size_t i = 0; i < request.points.size(); ++i) {
    const double w = request.weights.empty() ? 1.0 : request.weights[i];
    weighted.Add(request.points[i], request.labels[i], w);
  }
  return weighted;
}

void PassiveSolveResult::Serialize(WireStream& s) const {
  WriteClassifier(s, classifier);
  s.WriteF64(optimal_weighted_error);
  s.WriteU64(network_vertices);
  s.WriteU64(network_finite_edges);
  s.WriteU8(used_sparse_network);
}

PassiveSolveResult PassiveSolveResult::Unserialize(WireStream& s) {
  PassiveSolveResult m;
  m.classifier = ReadClassifier(s);
  m.optimal_weighted_error = ReadFiniteF64(s, "optimal error");
  m.network_vertices = s.ReadU64();
  m.network_finite_edges = s.ReadU64();
  m.used_sparse_network = s.ReadU8();
  return m;
}

void SessionOpenRequest::Serialize(WireStream& s) const {
  WritePointSet(s, points);
  s.WriteU64(seed);
  s.WriteF64(epsilon);
  s.WriteF64(delta);
  s.WriteU8(algorithm);
}

SessionOpenRequest SessionOpenRequest::Unserialize(WireStream& s) {
  SessionOpenRequest m;
  m.points = ReadPointSet(s);
  m.seed = s.ReadU64();
  m.epsilon = ReadFiniteF64(s, "epsilon");
  m.delta = ReadFiniteF64(s, "delta");
  m.algorithm = s.ReadU8();
  if (m.points.size() == 0) throw WireError("empty session point set");
  if (!(m.epsilon > 0.0) || m.epsilon > 1.0) throw WireError("bad epsilon");
  if (!(m.delta > 0.0) || m.delta >= 1.0) throw WireError("bad delta");
  return m;
}

void SessionProbeMessage::Serialize(WireStream& s) const {
  s.WriteU64(session_id);
  WriteU64Vector(s, indices);
}

SessionProbeMessage SessionProbeMessage::Unserialize(WireStream& s) {
  SessionProbeMessage m;
  m.session_id = s.ReadU64();
  m.indices = ReadU64Vector(s);
  return m;
}

void SessionStepRequest::Serialize(WireStream& s) const {
  if (labels.size() != indices.size()) {
    throw WireError("labels/indices size mismatch");
  }
  s.WriteU64(session_id);
  WriteU64Vector(s, indices);
  WriteU8Vector(s, labels);
}

SessionStepRequest SessionStepRequest::Unserialize(WireStream& s) {
  SessionStepRequest m;
  m.session_id = s.ReadU64();
  m.indices = ReadU64Vector(s);
  m.labels = ReadU8Vector(s);
  if (m.labels.size() != m.indices.size()) {
    throw WireError("labels/indices size mismatch");
  }
  for (const uint8_t label : m.labels) {
    if (label > 1) throw WireError("label outside {0,1}");
  }
  return m;
}

void SessionResultMessage::Serialize(WireStream& s) const {
  s.WriteU64(session_id);
  WriteClassifier(s, classifier);
  s.WriteU64(probes);
  s.WriteU64(num_chains);
  s.WriteF64(sigma_error);
}

SessionResultMessage SessionResultMessage::Unserialize(WireStream& s) {
  SessionResultMessage m;
  m.session_id = s.ReadU64();
  m.classifier = ReadClassifier(s);
  m.probes = s.ReadU64();
  m.num_chains = s.ReadU64();
  m.sigma_error = ReadFiniteF64(s, "sigma error");
  return m;
}

void SessionCloseRequest::Serialize(WireStream& s) const {
  s.WriteU64(session_id);
}

SessionCloseRequest SessionCloseRequest::Unserialize(WireStream& s) {
  SessionCloseRequest m;
  m.session_id = s.ReadU64();
  return m;
}

void SessionClosedMessage::Serialize(WireStream& s) const {
  s.WriteU64(session_id);
  s.WriteU8(existed);
}

SessionClosedMessage SessionClosedMessage::Unserialize(WireStream& s) {
  SessionClosedMessage m;
  m.session_id = s.ReadU64();
  m.existed = s.ReadU8();
  return m;
}

void StatsResponse::Serialize(WireStream& s) const {
  if (counters.size() > kMaxWireElements) throw WireError("too many counters");
  s.WriteU32(static_cast<uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    s.WriteString(name);
    s.WriteU64(value);
  }
}

StatsResponse StatsResponse::Unserialize(WireStream& s) {
  StatsResponse m;
  const uint32_t count = s.ReadCount(12);  // 4-byte name length + 8-byte value
  m.counters.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = s.ReadString();
    const uint64_t value = s.ReadU64();
    m.counters.emplace_back(std::move(name), value);
  }
  return m;
}

}  // namespace net
}  // namespace monoclass
