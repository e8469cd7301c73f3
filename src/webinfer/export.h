// Export of a trained composite network's browser part into the flat
// WebModel format (the paper's C++ -> Emscripten conversion step, Fig. 3).
#pragma once

#include "core/composite.h"
#include "webinfer/format.h"

namespace lcrs::webinfer {

/// Converts the shared conv1 stage plus the binary branch of a trained
/// composite network into a self-contained WebModel. Binary layers'
/// weights are packed here with binary::pack_filters, so the blob always
/// reflects the current weights and export never writes to `net`;
/// BatchNorm is folded into per-channel scale/shift using its running
/// statistics.
/// Throws InvalidArgument on a layer kind the browser engine cannot run.
WebModel export_browser_model(core::CompositeNetwork& net,
                              std::int64_t in_c, std::int64_t in_h,
                              std::int64_t in_w);

}  // namespace lcrs::webinfer
