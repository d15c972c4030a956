// Blocked, packed, register-tiled GEMM over fp32, bf16 and int8 operands.
//
// One kernel powers matmul / matmul_nt / matmul_tn and their bf16 and int8
// twins: C += op(A)·op(B) with row-major operands, independent transpose
// flags and an fp32 C. Each driver below is written once, over an
// element-traits type that supplies the stored, panel and accumulator types,
// the micro-kernel, the k-dot and the write-back (identity for fp32/bf16,
// per-channel dequant for int8). The blocked driver is the classic
// three-level cache blocking (BLIS/GotoBLAS structure):
//
//   for each KC slice of k:            (B slice stays in L2)
//     for each NC slice of n:
//       pack op(B) into NR-wide column panels   (contiguous, zero-padded)
//       parallel over rows:                     (grain-aware chunks)
//         for each MC slice of the chunk:
//           pack op(A) into MR-wide row panels  (per-thread workspace)
//           MR x NR micro-kernel: rank-KC update accumulated in registers
//
// Packing makes the micro-kernel's loads contiguous and transpose-agnostic,
// so `__restrict` plain loops auto-vectorize; accumulators live in registers
// for the whole KC depth, eliminating the k-fold C traffic of the naive
// kernel. Panels come from the per-thread Workspace, so steady-state
// training reuses the same slabs every step. Two shapes skip the blocking:
// tiny products (a direct loop) and skinny ones, a few rows of a
// non-transposed A (streamed, see kGemmSkinnyRows).
#pragma once

#include <cstdint>

namespace caraml::tensor::detail {

// Register tile (micro-kernel footprint) and cache blocking. 6x16 fills the
// 16 AVX2 ymm registers (12 accumulators + B row + A broadcast); KC keeps an
// A panel pair in L1/L2, NC bounds the packed B panel to ~L2.
inline constexpr int kGemmMR = 6;
inline constexpr int kGemmNR = 16;
inline constexpr std::int64_t kGemmMC = 72;    // multiple of kGemmMR
inline constexpr std::int64_t kGemmKC = 256;
inline constexpr std::int64_t kGemmNC = 1024;  // multiple of kGemmNR

// Below this many multiply-adds (m*n*k) the packed path's overhead is not
// worth it and a direct register-accumulating loop runs instead.
inline constexpr std::int64_t kGemmDirectThreshold = 32 * 32 * 32;

/// Elementwise post-processing fused into the GEMM write-back.
///
/// Each C element is transformed exactly once, immediately after its final
/// KC-slice accumulation, while the row chunk is still cache-hot — no extra
/// pass over C. Application order per element:
///
///   v  = C[i][j] + bias[j]            (bias may be null)
///   pre_activation[i][j] = v          (optional post-bias capture — what a
///                                      GELU backward needs)
///   v  = gelu(v)                      (when gelu is set)
///   v *= dropout_mask[i][j]           (scaled keep-mask, may be null)
///   C[i][j] = v
///
/// pre_activation and dropout_mask are row-major [m, n] with row stride ldc
/// (callers pass dense outputs, so ldc == n in practice). The epilogue is
/// applied even for degenerate k <= 0 (C holds its initial value, usually 0).
struct GemmEpilogue {
  const float* bias = nullptr;          // [n], added to every row
  bool gelu = false;                    // tanh-GELU after the bias
  const float* dropout_mask = nullptr;  // [m, n], multiplied last
  float* pre_activation = nullptr;      // [m, n], receives the post-bias value

  bool empty() const {
    return bias == nullptr && !gelu && dropout_mask == nullptr &&
           pre_activation == nullptr;
  }
};

/// C[m,n] += op(A)·op(B), then the epilogue (none by default).
///
/// op(A) is A[m,k] when !trans_a, else A is stored [k,m] and used transposed;
/// op(B) is B[k,n] when !trans_b, else B is stored [n,k] and used transposed.
/// lda/ldb/ldc are row strides of the *stored* matrices. C must be
/// initialized by the caller (the kernel accumulates; the epilogue transforms
/// the fully accumulated values). trans_a && trans_b is unsupported (no
/// caller needs it).
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc,
          const GemmEpilogue& epilogue = {});

/// bf16 GEMM: A and B are stored as bf16 (the top 16 bits of a binary32, see
/// dtype.hpp). They widen to fp32 on packing or load, so the fp32
/// micro-kernel and all accumulation run in full precision while A/B memory
/// traffic is halved. Semantics otherwise identical to the fp32 gemm.
void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::uint16_t* a, std::int64_t lda,
               const std::uint16_t* b, std::int64_t ldb, float* c,
               std::int64_t ldc, const GemmEpilogue& epilogue = {});

/// int8 inference GEMM with fused dequantization:
///
///   C[i,j] += (float(sum_p qa[i,p] * qb[j,p]) * scale_a) * scale_b[j]
///
/// qa [m,k] and qb [n,k] are symmetric int8 quantized operands (see
/// quant.hpp): B is always used transposed, as a Linear weight [out, in] is
/// stored, and A never is. scale_a is the per-tensor activation scale,
/// scale_b the per-output-channel weight scales ([n]; pass a broadcast array
/// for per-tensor weights). The integer product accumulates exactly in int32
/// per KC slice (or over all of k on the skinny path, for k <= 2^17), then
/// dequantizes into fp32 C, so across-slice accumulation is fp32 just like
/// the other paths. The epilogue composes unchanged on the dequantized
/// values.
void gemm_i8(std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
             std::int64_t ldb, float scale_a, const float* scale_b, float* c,
             std::int64_t ldc, const GemmEpilogue& epilogue = {});

// Row count at or below which every dtype streams op(B) directly (widen on
// load, no packing) when A is not transposed and m*n*k is above
// kGemmDirectThreshold: with so few rows the packed path writes and re-reads
// an op(B)-sized panel, doubling the traffic that dominates these
// bandwidth-bound shapes. A decode-row Linear therefore streams its weight
// once per call instead of packing it.
inline constexpr std::int64_t kGemmSkinnyRows = 2 * kGemmMR;

}  // namespace caraml::tensor::detail
