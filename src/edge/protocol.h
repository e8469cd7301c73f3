// Wire protocol between the browser client and the edge server.
//
// Length-prefixed binary frames over a byte stream, with one fixed
// kFrameHeaderBytes-long header:
//
//   [u32 magic "LCV3"][u8 type][u32 model_id][u64 trace_id]
//   [u32 payload_size][payload]
//
// model_id routes a request to one entry of the server's ModelRegistry
// (edge/model_registry.h); 0 is the default model. trace_id stitches one
// request's client-side and edge-side spans into a single timeline
// (common/obs/trace.h); 0 means untraced. Both are plain fields, so every
// id pair has exactly one encoding and decode -> encode reproduces any
// accepted input byte for byte (the fuzzer's round-trip oracle).
//
// A streaming receiver reads kFrameHeaderBytes, calls parse_frame_header
// (which rejects a payload over kMaxFramePayloadBytes before anything is
// allocated) and then reads the payload. decode_frame applies the same
// header check to a whole buffer.
//
// Payloads reuse the library's tensor serialization. The same frames are
// used by the real TCP runtime and by the protocol tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "tensor/tensor.h"

namespace lcrs::edge {

enum class MsgType : std::uint8_t {
  kPing = 0,
  kPong = 1,
  kCompleteRequest = 2,   // payload: conv1 feature tensor
  kCompleteResponse = 3,  // payload: i64 label + probability tensor
  kShutdown = 4,
  kBusy = 5,  // payload: u32 retry-after hint (ms); admission rejected
  kModelUnavailable = 6,  // payload: u32 model id; registry has no entry
};

struct Frame {
  MsgType type = MsgType::kPing;
  std::vector<std::uint8_t> payload;
  /// 0 = untraced.
  std::uint64_t trace_id = 0;
  /// 0 = the server's default model.
  std::uint32_t model_id = 0;
};

/// Frame header size on the wire (magic + type + model id + trace id +
/// payload length).
constexpr std::size_t kFrameHeaderBytes = 21;

/// Largest payload a frame may carry. encode_frame refuses to build a
/// bigger frame and parse_frame_header refuses to accept one, so every
/// frame a sender can build is one every receiver takes.
constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

/// Encodes a frame into wire bytes; throws InvalidArgument when the
/// payload exceeds kMaxFramePayloadBytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decodes exactly one frame; throws ParseError on malformed input.
Frame decode_frame(const std::vector<std::uint8_t>& bytes);

/// Parses a kFrameHeaderBytes-long header, filling `type`, `model_id`
/// and `trace_id` and returning the payload size. Throws ParseError on a
/// bad magic, an unknown type or a payload over kMaxFramePayloadBytes.
std::uint32_t parse_frame_header(const std::uint8_t* header, MsgType* type,
                                 std::uint32_t* model_id,
                                 std::uint64_t* trace_id);

/// Payload builders / parsers.
std::vector<std::uint8_t> make_complete_request(const Tensor& shared);
Tensor parse_complete_request(const std::vector<std::uint8_t>& payload);

struct CompleteResponse {
  std::int64_t label = -1;
  Tensor probabilities;
};
std::vector<std::uint8_t> make_complete_response(const CompleteResponse& r);
CompleteResponse parse_complete_response(
    const std::vector<std::uint8_t>& payload);

/// kBusy payload: the server's admission queue is full. `retry_after_ms`
/// is a hint, not a contract -- the client may retry sooner (its own
/// backoff/deadline still govern) but should not hammer.
std::vector<std::uint8_t> make_busy_reply(std::uint32_t retry_after_ms);
std::uint32_t parse_busy_reply(const std::vector<std::uint8_t>& payload);

/// kModelUnavailable payload: the requested model id has no registry
/// entry on the server. Echoes the id so a client multiplexing models
/// over one connection can attribute the rejection.
std::vector<std::uint8_t> make_model_unavailable(std::uint32_t model_id);
std::uint32_t parse_model_unavailable(const std::vector<std::uint8_t>& payload);

/// Thrown by the client when the server answers kBusy. Derives from
/// IoError so existing retry/fallback handlers cover it, but is caught
/// separately by BrowserClient: a busy reply means the connection is
/// healthy and in sync (no reconnect needed), only the server is loaded.
class ServerBusyError : public IoError {
 public:
  explicit ServerBusyError(std::uint32_t retry_after_ms_arg)
      : IoError("edge server busy (retry after " +
                std::to_string(retry_after_ms_arg) + " ms)"),
        retry_after_ms(retry_after_ms_arg) {}

  std::uint32_t retry_after_ms;
};

/// Thrown by the client when the server answers kModelUnavailable.
/// Derives from IoError so existing retry/fallback handlers cover it,
/// but is caught separately by BrowserClient: like kBusy, the connection
/// is healthy and in sync (no reconnect needed) -- the model may simply
/// not have finished rolling out yet, so the client backs off and
/// retries within its deadline before falling back locally.
class ModelUnavailableError : public IoError {
 public:
  explicit ModelUnavailableError(std::uint32_t model_id_arg)
      : IoError("edge server has no model " + std::to_string(model_id_arg)),
        model_id(model_id_arg) {}

  std::uint32_t model_id;
};

}  // namespace lcrs::edge
