// Browser-model blob harness: raw bytes -> webinfer::deserialize, the
// parser the paper's browser runtime feeds with a network-downloaded
// artifact (the least trustworthy input in the whole system).
//
// Oracle: an accepted model re-serializes to exactly the input bytes --
// the format is canonical and deserialize rejects trailing garbage. An
// accepted model with a small input (at most 64K elements) then runs one
// forward pass on a zero frame, so an op whose parsed fields disagree
// with its tensors shows up as an out-of-bounds read, not only a parse.
#include "fuzz_util.h"
#include "webinfer/engine.h"
#include "webinfer/format.h"

using namespace lcrs;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 20)) return 0;
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    const webinfer::WebModel model = webinfer::deserialize(bytes);
    FUZZ_ASSERT(webinfer::serialize(model) == bytes,
                "web model re-serialization differs from accepted input");
    const Shape in{1, model.in_c, model.in_h, model.in_w};
    if (in.numel() <= (1 << 16)) {
      (void)webinfer::Engine(model).forward(Tensor{in});
    }
  } catch (const Error&) {
    // expected rejection path
  }
  return 0;
}
