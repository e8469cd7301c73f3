#include "edge/protocol.h"

#include "common/bytes.h"
#include "tensor/serialize.h"

namespace lcrs::edge {

namespace {
constexpr std::uint32_t kFrameMagic = 0x4c435633;  // "LCV3"
}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    throw InvalidArgument("frame payload of " +
                          std::to_string(frame.payload.size()) +
                          " bytes exceeds the " +
                          std::to_string(kMaxFramePayloadBytes) +
                          "-byte frame limit");
  }
  ByteWriter w;
  w.write_u32(kFrameMagic);
  w.write_u8(static_cast<std::uint8_t>(frame.type));
  w.write_u32(frame.model_id);
  w.write_u64(frame.trace_id);
  w.write_u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.write_bytes(frame.payload.data(), frame.payload.size());
  return w.take();
}

Frame decode_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes) throw ParseError("frame truncated");
  Frame f;
  const std::uint32_t size =
      parse_frame_header(bytes.data(), &f.type, &f.model_id, &f.trace_id);
  // Validate before allocating: corrupt length fields must not OOM.
  const std::size_t available = bytes.size() - kFrameHeaderBytes;
  if (size > available) throw ParseError("frame payload truncated");
  if (size < available) throw ParseError("trailing bytes after frame");
  f.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  return f;
}

std::uint32_t parse_frame_header(const std::uint8_t* header, MsgType* type,
                                 std::uint32_t* model_id,
                                 std::uint64_t* trace_id) {
  ByteReader r(header, kFrameHeaderBytes);
  if (r.read_u32() != kFrameMagic) throw ParseError("bad frame magic");
  const std::uint8_t t = r.read_u8();
  if (t > static_cast<std::uint8_t>(MsgType::kModelUnavailable)) {
    throw ParseError("unknown frame type");
  }
  const std::uint32_t model = r.read_u32();
  const std::uint64_t trace = r.read_u64();
  const std::uint32_t size = r.read_u32();
  if (size > kMaxFramePayloadBytes) {
    throw ParseError("frame payload exceeds the frame limit");
  }
  // Outputs are written only once the whole header has passed.
  *type = static_cast<MsgType>(t);
  *model_id = model;
  *trace_id = trace;
  return size;
}

std::vector<std::uint8_t> make_complete_request(const Tensor& shared) {
  ByteWriter w;
  write_tensor(w, shared);
  return w.take();
}

Tensor parse_complete_request(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  return read_tensor(r);
}

std::vector<std::uint8_t> make_complete_response(const CompleteResponse& r) {
  ByteWriter w;
  w.write_i64(r.label);
  write_tensor(w, r.probabilities);
  return w.take();
}

CompleteResponse parse_complete_response(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  CompleteResponse resp;
  resp.label = r.read_i64();
  resp.probabilities = read_tensor(r);
  return resp;
}

std::vector<std::uint8_t> make_busy_reply(std::uint32_t retry_after_ms) {
  ByteWriter w;
  w.write_u32(retry_after_ms);
  return w.take();
}

std::uint32_t parse_busy_reply(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint32_t retry_after_ms = r.read_u32();
  if (!r.at_end()) throw ParseError("trailing bytes after busy reply");
  return retry_after_ms;
}

std::vector<std::uint8_t> make_model_unavailable(std::uint32_t model_id) {
  ByteWriter w;
  w.write_u32(model_id);
  return w.take();
}

std::uint32_t parse_model_unavailable(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint32_t model_id = r.read_u32();
  if (!r.at_end()) {
    throw ParseError("trailing bytes after model-unavailable reply");
  }
  return model_id;
}

}  // namespace lcrs::edge
