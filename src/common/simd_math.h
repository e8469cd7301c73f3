// Vectorized elementwise math for the serving hot path.
//
// tanh_inplace dispatches on simd::active_level():
//   - kAvx2: 8-wide rational approximation (odd degree-13 numerator over
//     even degree-6 denominator in x^2, inputs clamped at |x| ~ 7.905
//     where float tanh is saturated to within one ULP). Deviation from
//     std::tanh is a few ULP (< 1e-6 absolute); the bound is pinned by
//     the parity test in test_numerics.
//   - every other level (including LCRS_SIMD=scalar): an exact std::tanh
//     loop, as before vectorization. SSE/NEON fall back to scalar; this is
//     the per-kernel fallback documented in common/simd.h.
//
// The AVX2 path routes the final < 8 elements through the same 8-wide
// kernel via a zero-padded buffer, so the result for a given input value
// never depends on its position in the tensor. The batch-composition
// invariance property tests rely on that elementwise purity.
#pragma once

#include <cstdint>

namespace lcrs::simd {

/// Applies tanh elementwise, in place. The scalar dispatch level computes
/// std::tanh exactly; vector levels use the approximation described above.
void tanh_inplace(float* data, std::int64_t n);

}  // namespace lcrs::simd
