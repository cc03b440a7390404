// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "net/frame.h"

#include <array>
#include <string>

namespace monoclass {
namespace net {
namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

void StoreU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void StoreU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void StoreU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

FrameHeader DecodeFrameHeader(const uint8_t* data) {
  for (size_t i = 0; i < 4; ++i) {
    if (data[i] != kFrameMagic[i]) {
      throw WireError("bad frame magic");
    }
  }
  FrameHeader header;
  header.version = LoadU16(data + 4);
  if (header.version != kProtocolVersion) {
    throw WireError("unsupported protocol version " +
                    std::to_string(header.version));
  }
  header.type = LoadU16(data + 6);
  if (!IsKnownMessageType(header.type)) {
    throw WireError("unknown message type " + std::to_string(header.type));
  }
  header.request_id = LoadU64(data + 8);
  header.payload_len = LoadU32(data + 16);
  if (header.payload_len > kMaxFramePayloadBytes) {
    throw WireError("frame payload length " +
                    std::to_string(header.payload_len) + " exceeds cap");
  }
  return header;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    throw WireError("frame payload exceeds cap");
  }
  std::vector<uint8_t> out;
  out.reserve(kFrameOverheadBytes + frame.payload.size());
  // Byte by byte: gcc 12 reports a false -Wstringop-overflow for an
  // insert() of the magic after reserve().
  for (const uint8_t byte : kFrameMagic) out.push_back(byte);
  StoreU16(out, kProtocolVersion);
  StoreU16(out, frame.type);
  StoreU64(out, frame.request_id);
  StoreU32(out, static_cast<uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  StoreU32(out, Crc32(frame.payload.data(), frame.payload.size()));
  return out;
}

std::optional<Frame> TryDecodeFrame(const std::vector<uint8_t>& buffer,
                                    size_t* consumed) {
  *consumed = 0;
  // Reject a wrong magic as soon as the divergence is visible, so a
  // stream that can never resynchronize fails fast instead of waiting
  // for a full header that will never arrive.
  const size_t magic_avail = buffer.size() < 4 ? buffer.size() : 4;
  for (size_t i = 0; i < magic_avail; ++i) {
    if (buffer[i] != kFrameMagic[i]) {
      throw WireError("bad frame magic");
    }
  }
  if (buffer.size() < kFrameHeaderBytes) return std::nullopt;
  const FrameHeader header = DecodeFrameHeader(buffer.data());
  const size_t total = kFrameOverheadBytes + header.payload_len;
  if (buffer.size() < total) return std::nullopt;
  const uint8_t* payload = buffer.data() + kFrameHeaderBytes;
  const uint32_t stored_crc = LoadU32(payload + header.payload_len);
  const uint32_t computed_crc = Crc32(payload, header.payload_len);
  if (stored_crc != computed_crc) {
    throw WireError("frame checksum mismatch");
  }
  Frame frame;
  frame.type = header.type;
  frame.request_id = header.request_id;
  frame.payload.assign(payload, payload + header.payload_len);
  *consumed = total;
  return frame;
}

}  // namespace net
}  // namespace monoclass
