/**
 * @file
 * Dense drivers shared by the FC and MatMul layers.
 *
 * The input is a [positions][red] operand stream already converted to
 * stored form; the weights are packed in the fixed-width layouts of
 * pack.hh.  Each driver runs one `KernelTable` microkernel per
 * position over the pack blocks that hold the column window [c0, c1),
 * then walks those columns applying the caller's writeback.  Lanes
 * span independent output columns, each accumulating in the canonical
 * reduction order with unfused multiply-adds — bit-identical to the
 * scalar kernel and to computeNeuron(), whatever the window.
 *
 * Callers provide the accumulator scratch (`acc`, one padded block
 * row: packBlocks(cols, L) * L elements) so steady-state campaigns
 * reuse arena storage.  Output rows are `cols` apart; columns outside
 * the window are left untouched.
 */

#ifndef FIDELITY_SIMD_GEMM_HH
#define FIDELITY_SIMD_GEMM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "simd/pack.hh"
#include "simd/simd.hh"

namespace fidelity::simd
{

/**
 * out[pos * cols + c] = wb(sum_k xs[pos * red + k] * packed[k, c], c)
 * for every position and every column c in [c0, c1); `wb(acc, c)`
 * applies bias/writeback.
 */
template <class WB>
void
denseFloat(const KernelTable &kt, const float *xs, std::size_t positions,
           int red, int cols, int c0, int c1, const float *packed,
           float *acc, float *out, WB wb)
{
    constexpr int L = kF32Lanes;
    const int b0 = c0 / L;
    const int blocks = (c1 - 1) / L - b0 + 1;
    const float *pk = packed + static_cast<std::size_t>(b0) * red * L;
    for (std::size_t pos = 0; pos < positions; ++pos) {
        kt.gemmF32(xs + pos * red, red, blocks, pk, acc);
        float *ob = out + pos * cols;
        for (int c = c0; c < c1; ++c)
            ob[c] = wb(static_cast<double>(acc[c - b0 * L]), c);
    }
}

/** Wide integer twin: int64 lane accumulators over int32 operands. */
template <class WB>
void
denseInt(const KernelTable &kt, const std::int32_t *xq,
         std::size_t positions, int red, int cols, int c0, int c1,
         const std::int32_t *packed, std::int64_t *acc, float *out,
         WB wb)
{
    constexpr int L = kI64Lanes;
    const int b0 = c0 / L;
    const int blocks = (c1 - 1) / L - b0 + 1;
    const std::int32_t *pk =
        packed + static_cast<std::size_t>(b0) * red * L;
    for (std::size_t pos = 0; pos < positions; ++pos) {
        kt.gemmI64(xq + pos * red, red, blocks, pk, acc);
        float *ob = out + pos * cols;
        for (int c = c0; c < c1; ++c)
            ob[c] = wb(acc[c - b0 * L], c);
    }
}

/**
 * Narrow integer driver over the pair-interleaved int16 pack.  `xs`
 * holds the int16-narrowed stored-form operands and must be readable
 * one element past the final position (odd reductions read a padded
 * pair whose weight is zero — the caller allocates n + 1 elements
 * with the extra one zeroed).  Exact by the chunk bound, so results
 * are bit-identical to denseInt and computeNeuron().  With `declined`
 * (narrowOperands found an INT32_MIN), positions whose int32 row `xq`
 * holds one run through narrowPackMacWide instead.
 */
template <class WB>
void
denseNarrow(const KernelTable &kt, const std::int16_t *xs,
            const std::int32_t *xq, bool declined, std::size_t positions,
            int red, int cols, int c0, int c1, const std::int16_t *packed,
            int chunkPairs, std::int64_t *acc, float *out, WB wb)
{
    constexpr int L = kNarrowLanes;
    const int b0 = c0 / L;
    const int blocks = (c1 - 1) / L - b0 + 1;
    const int redPairs = packPairs(red);
    const std::size_t blkStride = static_cast<std::size_t>(redPairs) * 2 * L;
    const std::int16_t *pk = packed + b0 * blkStride;
    for (std::size_t pos = 0; pos < positions; ++pos) {
        float *ob = out + pos * cols;
        const std::int32_t *row = xq + pos * red;
        if (declined && std::any_of(row, row + red, narrowDeclines)) {
            for (int c = c0; c < c1; ++c) {
                std::int64_t a;
                narrowPackMacWide(row, packed + (c / L) * blkStride +
                                           (c % L) * 2,
                                  red, 2 * L, 1, 1, &a);
                ob[c] = wb(a, c);
            }
            continue;
        }
        kt.gemmNarrow(xs + pos * red, redPairs, blocks, pk, chunkPairs,
                      acc);
        for (int c = c0; c < c1; ++c)
            ob[c] = wb(acc[c - b0 * L], c);
    }
}

} // namespace fidelity::simd

#endif // FIDELITY_SIMD_GEMM_HH
