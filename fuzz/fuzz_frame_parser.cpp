// Frame-parser harness: raw bytes -> decode_frame + every typed payload
// parser + the streaming header paths the server/client actually use.
//
// Oracles beyond "no crash":
//   * decode_frame accepts  => encode_frame(decoded) reproduces the input
//     byte-for-byte (one fixed header, so every frame has one encoding).
//   * a typed payload parses => rebuilding the payload from the parsed
//     value and re-parsing yields the same value (make/parse agree).
//   * the streaming header parser agrees with whole-buffer decode_frame
//     about type, model id, trace id and payload size.
#include <cstring>

#include "edge/protocol.h"
#include "fuzz_util.h"
#include "tensor/serialize.h"

using namespace lcrs;

namespace {

void check_typed_payload(const edge::Frame& f) {
  try {
    switch (f.type) {
      case edge::MsgType::kCompleteRequest: {
        const Tensor t = edge::parse_complete_request(f.payload);
        const auto rebuilt = edge::make_complete_request(t);
        const Tensor again = edge::parse_complete_request(rebuilt);
        FUZZ_ASSERT(again.shape() == t.shape(),
                    "complete-request round-trip changed the shape");
        FUZZ_ASSERT(std::memcmp(again.data(), t.data(),
                                static_cast<std::size_t>(t.numel()) *
                                    sizeof(float)) == 0,
                    "complete-request round-trip changed the payload");
        break;
      }
      case edge::MsgType::kCompleteResponse: {
        const edge::CompleteResponse resp =
            edge::parse_complete_response(f.payload);
        const edge::CompleteResponse again =
            edge::parse_complete_response(edge::make_complete_response(resp));
        FUZZ_ASSERT(again.label == resp.label,
                    "complete-response round-trip changed the label");
        FUZZ_ASSERT(again.probabilities.shape() == resp.probabilities.shape(),
                    "complete-response round-trip changed the shape");
        break;
      }
      case edge::MsgType::kBusy: {
        const std::uint32_t retry = edge::parse_busy_reply(f.payload);
        FUZZ_ASSERT(edge::make_busy_reply(retry) == f.payload,
                    "busy reply is not canonical");
        break;
      }
      case edge::MsgType::kModelUnavailable: {
        const std::uint32_t id = edge::parse_model_unavailable(f.payload);
        FUZZ_ASSERT(edge::make_model_unavailable(id) == f.payload,
                    "model-unavailable reply is not canonical");
        break;
      }
      default:
        break;  // kPing/kPong/kShutdown carry no payload contract
    }
  } catch (const Error&) {
    // A structurally valid frame may still carry a malformed payload.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 20)) return 0;  // bound per-exec cost
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    const edge::Frame f = edge::decode_frame(bytes);
    FUZZ_ASSERT(edge::encode_frame(f) == bytes,
                "decode_frame accepted bytes encode_frame cannot reproduce");
    check_typed_payload(f);
  } catch (const Error&) {
    // expected rejection path for malformed frames
  }

  // Streaming header path (the socket reads kFrameHeaderBytes, parses
  // them, then reads the payload). It must agree with decode_frame.
  if (size >= edge::kFrameHeaderBytes) {
    edge::MsgType type{};
    std::uint32_t model_id = 0;
    std::uint64_t trace_id = 0;
    std::uint32_t payload_size = 0;
    try {
      payload_size =
          edge::parse_frame_header(data, &type, &model_id, &trace_id);
    } catch (const Error&) {
      return 0;  // header-level rejection
    }
    try {
      const edge::Frame f = edge::decode_frame(bytes);
      FUZZ_ASSERT(f.type == type, "streaming header type disagrees");
      FUZZ_ASSERT(f.model_id == model_id,
                  "streaming header model id disagrees");
      FUZZ_ASSERT(f.trace_id == trace_id,
                  "streaming header trace id disagrees");
      FUZZ_ASSERT(f.payload.size() == payload_size,
                  "streaming header payload size disagrees");
    } catch (const Error&) {
      // whole-buffer decode may still reject (truncated payload etc.)
    }
  }
  return 0;
}
