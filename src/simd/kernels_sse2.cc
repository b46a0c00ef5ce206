/**
 * @file
 * The SSE2 kernel table — the x86-64 baseline, so it needs no extra
 * compile flags and is always runnable on any x86-64 host.  Float
 * kernels run 4-wide over the fixed 8-wide packs; the narrow integer
 * kernels use `pmaddwd` (SSE2); the wide integer MAC has no signed
 * 32x32->64 multiply below SSE4.1 and stays on the scalar ops (the
 * narrow path carries integer performance on this table).
 */

#include "simd/kernels_impl.hh"

namespace fidelity::simd
{

const KernelTable *
kernelTableSse2()
{
#if defined(FIDELITY_KIMPL_X86)
    static const KernelTable t = {
        "sse2",
        &gemmF32T<Sse2Backend>,
        &gemmI64T<Scalar4>,
        &gemmNarrowSse2K,
        &batchMacF32T<Sse2Backend, Sse2Backend>,
        &batchMacI64T<Scalar4>,
        &batchMacNarrowSse2K,
        &addF32T<Sse2Backend>,
        &subF32T<Sse2Backend>,
        &mulF32T<Sse2Backend>,
        &scaleShiftF32T<Sse2Backend>,
        &reluF32T<Sse2Backend>,
        &lreluF32T<Sse2Backend>,
        &roundToHalfScalarK,
        &quantizeScalarK,
    };
    return &t;
#else
    return nullptr;
#endif
}

} // namespace fidelity::simd
