#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "tensor/activations.hpp"
#include "tensor/workspace.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace caraml::tensor::detail {
namespace {

constexpr int MR = kGemmMR;
constexpr int NR = kGemmNR;

// Widen one stored fp32 or bf16 element to the fp32 the kernels compute in.
// For float it is the identity and compiles away.
inline float to_f32(float x) { return x; }
inline float to_f32(std::uint16_t x) {
  const std::uint32_t bits = static_cast<std::uint32_t>(x) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

#if defined(__GNUC__) || defined(__clang__)

// 8-wide float vector with scalar (4-byte) alignment so loads/stores work on
// arbitrarily offset C rows and packed panels.
typedef float v8f __attribute__((vector_size(32), aligned(4)));

// Rank-kc update of an MR x NR tile of C. The 12 accumulators are *named*
// vector variables, not an array: an acc[MR*NR] aggregate exceeds the
// compiler's scalar-replacement budget and gets spilled to the stack on
// every k-iteration, which is the difference between ~1 and ~25 GFLOP/s.
// `ap` is an MR-wide packed A panel (column-major micro-panel: ap[p*MR+i]),
// `bp` an NR-wide packed B panel (bp[p*NR+j]); both are zero-padded, so the
// hot loop is branch-free. rows/cols clip the C write-back for edge tiles.
void micro_kernel_f32(std::int64_t kc, const float* __restrict ap,
                      const float* __restrict bp, float* __restrict c,
                      std::int64_t ldc, int rows, int cols) {
  v8f c00{}, c01{}, c10{}, c11{}, c20{}, c21{};
  v8f c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict a_col = ap + p * MR;
    const v8f b0 = *reinterpret_cast<const v8f*>(bp + p * NR);
    const v8f b1 = *reinterpret_cast<const v8f*>(bp + p * NR + 8);
    c00 += a_col[0] * b0;
    c01 += a_col[0] * b1;
    c10 += a_col[1] * b0;
    c11 += a_col[1] * b1;
    c20 += a_col[2] * b0;
    c21 += a_col[2] * b1;
    c30 += a_col[3] * b0;
    c31 += a_col[3] * b1;
    c40 += a_col[4] * b0;
    c41 += a_col[4] * b1;
    c50 += a_col[5] * b0;
    c51 += a_col[5] * b1;
  }
  if (rows == MR && cols == NR) {
    v8f* r0 = reinterpret_cast<v8f*>(c);
    v8f* r1 = reinterpret_cast<v8f*>(c + ldc);
    v8f* r2 = reinterpret_cast<v8f*>(c + 2 * ldc);
    v8f* r3 = reinterpret_cast<v8f*>(c + 3 * ldc);
    v8f* r4 = reinterpret_cast<v8f*>(c + 4 * ldc);
    v8f* r5 = reinterpret_cast<v8f*>(c + 5 * ldc);
    r0[0] += c00;
    r0[1] += c01;
    r1[0] += c10;
    r1[1] += c11;
    r2[0] += c20;
    r2[1] += c21;
    r3[0] += c30;
    r3[1] += c31;
    r4[0] += c40;
    r4[1] += c41;
    r5[0] += c50;
    r5[1] += c51;
  } else {
    float acc[MR * NR];
    *reinterpret_cast<v8f*>(acc + 0 * NR) = c00;
    *reinterpret_cast<v8f*>(acc + 0 * NR + 8) = c01;
    *reinterpret_cast<v8f*>(acc + 1 * NR) = c10;
    *reinterpret_cast<v8f*>(acc + 1 * NR + 8) = c11;
    *reinterpret_cast<v8f*>(acc + 2 * NR) = c20;
    *reinterpret_cast<v8f*>(acc + 2 * NR + 8) = c21;
    *reinterpret_cast<v8f*>(acc + 3 * NR) = c30;
    *reinterpret_cast<v8f*>(acc + 3 * NR + 8) = c31;
    *reinterpret_cast<v8f*>(acc + 4 * NR) = c40;
    *reinterpret_cast<v8f*>(acc + 4 * NR + 8) = c41;
    *reinterpret_cast<v8f*>(acc + 5 * NR) = c50;
    *reinterpret_cast<v8f*>(acc + 5 * NR + 8) = c51;
    for (int i = 0; i < rows; ++i) {
      float* __restrict c_row = c + i * ldc;
      const float* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < cols; ++j) c_row[j] += acc_row[j];
    }
  }
}

#else  // portable fallback, relies on autovectorization

void micro_kernel_f32(std::int64_t kc, const float* __restrict ap,
                      const float* __restrict bp, float* __restrict c,
                      std::int64_t ldc, int rows, int cols) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict a_col = ap + p * MR;
    const float* __restrict b_row = bp + p * NR;
    for (int i = 0; i < MR; ++i) {
      const float a_val = a_col[i];
      float* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < NR; ++j) acc_row[j] += a_val * b_row[j];
    }
  }
  for (int i = 0; i < rows; ++i) {
    float* __restrict c_row = c + i * ldc;
    const float* __restrict acc_row = acc + i * NR;
    for (int j = 0; j < cols; ++j) c_row[j] += acc_row[j];
  }
}

#endif

#if defined(__AVX2__)

// MR x NR rank-kc int8 update with fused dequant. Accumulators are named
// (same scalar-replacement constraint as the fp32 kernel); each pmaddwd
// retires two k-steps for all 8 columns of one half-tile.
void micro_kernel_i8(std::int64_t kc2, const std::int16_t* __restrict ap,
                     const std::int16_t* __restrict bp, float* __restrict c,
                     std::int64_t ldc, int rows, int cols, float scale_a,
                     const float* __restrict scale_b) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2 + 16));
    const std::int16_t* a_col = ap + p2 * MR * 2;
    std::int32_t pair;
    std::memcpy(&pair, a_col + 0, sizeof(pair));
    __m256i av = _mm256_set1_epi32(pair);
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(av, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 2, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(av, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 4, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(av, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 6, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(av, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 8, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c40 = _mm256_add_epi32(c40, _mm256_madd_epi16(av, b0));
    c41 = _mm256_add_epi32(c41, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 10, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c50 = _mm256_add_epi32(c50, _mm256_madd_epi16(av, b0));
    c51 = _mm256_add_epi32(c51, _mm256_madd_epi16(av, b1));
  }
  if (rows == MR && cols == NR) {
    const __m256 vsa = _mm256_set1_ps(scale_a);
    const __m256 sb0 = _mm256_loadu_ps(scale_b);
    const __m256 sb1 = _mm256_loadu_ps(scale_b + 8);
    // Written out per row (no pointer-to-accumulator array: taking the
    // accumulators' addresses would let them spill out of registers).
    const auto store_row = [&](float* ci, __m256i lo, __m256i hi) {
      const __m256 d0 =
          _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(lo), vsa), sb0);
      const __m256 d1 =
          _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(hi), vsa), sb1);
      _mm256_storeu_ps(ci, _mm256_add_ps(_mm256_loadu_ps(ci), d0));
      _mm256_storeu_ps(ci + 8, _mm256_add_ps(_mm256_loadu_ps(ci + 8), d1));
    };
    store_row(c, c00, c01);
    store_row(c + ldc, c10, c11);
    store_row(c + 2 * ldc, c20, c21);
    store_row(c + 3 * ldc, c30, c31);
    store_row(c + 4 * ldc, c40, c41);
    store_row(c + 5 * ldc, c50, c51);
  } else {
    alignas(32) std::int32_t acc[MR * NR];
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 0 * NR), c00);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 0 * NR + 8), c01);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 1 * NR), c10);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 1 * NR + 8), c11);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 2 * NR), c20);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 2 * NR + 8), c21);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 3 * NR), c30);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 3 * NR + 8), c31);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 4 * NR), c40);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 4 * NR + 8), c41);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 5 * NR), c50);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 5 * NR + 8), c51);
    for (int i = 0; i < rows; ++i) {
      float* __restrict c_row = c + i * ldc;
      const std::int32_t* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < cols; ++j)
        c_row[j] += (static_cast<float>(acc_row[j]) * scale_a) * scale_b[j];
    }
  }
}

#else  // portable fallback over the same packed-pair layout

void micro_kernel_i8(std::int64_t kc2, const std::int16_t* __restrict ap,
                     const std::int16_t* __restrict bp, float* __restrict c,
                     std::int64_t ldc, int rows, int cols, float scale_a,
                     const float* __restrict scale_b) {
  std::int32_t acc[MR * NR] = {};
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const std::int16_t* __restrict a_col = ap + p2 * MR * 2;
    const std::int16_t* __restrict b_row = bp + p2 * NR * 2;
    for (int i = 0; i < MR; ++i) {
      const std::int32_t a0 = a_col[i * 2];
      const std::int32_t a1 = a_col[i * 2 + 1];
      std::int32_t* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < NR; ++j)
        acc_row[j] += a0 * b_row[j * 2] + a1 * b_row[j * 2 + 1];
    }
  }
  for (int i = 0; i < rows; ++i) {
    float* __restrict c_row = c + i * ldc;
    const std::int32_t* __restrict acc_row = acc + i * NR;
    for (int j = 0; j < cols; ++j)
      c_row[j] += (static_cast<float>(acc_row[j]) * scale_a) * scale_b[j];
  }
}

#endif

#if defined(__GNUC__) || defined(__clang__)

typedef std::uint16_t v8u16 __attribute__((vector_size(16), aligned(2)));
typedef std::uint32_t v8u32 __attribute__((vector_size(32), aligned(4)));

// Widen 8 consecutive bf16 to a float vector (vpmovzxwd + vpslld).
inline v8f widen8(const std::uint16_t* p) {
  v8u16 h;
  std::memcpy(&h, p, sizeof(h));
  const v8u32 w = __builtin_convertvector(h, v8u32) << 16;
  v8f f;
  std::memcpy(&f, &w, sizeof(f));
  return f;
}

inline v8f widen8(const float* p) {
  v8f f;
  std::memcpy(&f, p, sizeof(f));
  return f;
}

// k-direction dot products of two rows, fp32 accumulation, one overload per
// stored type (fp32, bf16). Reductions don't auto-vectorize without
// -ffast-math, so these are written with explicit 8-wide partial
// accumulators; the fold order is fixed, so results are deterministic.
#if defined(__AVX2__) && defined(__FMA__)

inline float hsum(__m256 acc0, __m256 acc1, __m256 acc2, __m256 acc3) {
  const __m256 accv = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                    _mm256_add_ps(acc2, acc3));
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(accv),
                        _mm256_extractf128_ps(accv, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

inline float dot_f32(const std::uint16_t* __restrict a,
                     const std::uint16_t* __restrict b, std::int64_t k) {
  // Widen by unpacking bf16 halfwords into the *high* 16 bits of each 32-bit
  // lane against zeros — exactly the bf16 -> fp32 widening, one shuffle per
  // 8 elements instead of a vpmovzxwd + vpslld pair. The unpack interleaves
  // lanes, but a and b are permuted identically and every lane is summed, so
  // the dot is unaffected. Four FMA chains hide the FMA latency.
  const __m256i zero = _mm256_setzero_si256();
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i av0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + p));
    const __m256i bv0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + p));
    acc0 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, av0)),
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, bv0)), acc0);
    acc1 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, av0)),
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, bv0)), acc1);
    const __m256i av1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + p + 16));
    const __m256i bv1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + p + 16));
    acc2 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, av1)),
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, bv1)), acc2);
    acc3 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, av1)),
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, bv1)), acc3);
  }
  float acc = hsum(acc0, acc1, acc2, acc3);
  for (; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

inline float dot_f32(const float* __restrict a, const float* __restrict b,
                     std::int64_t k) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 8),
                           _mm256_loadu_ps(b + p + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 16),
                           _mm256_loadu_ps(b + p + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 24),
                           _mm256_loadu_ps(b + p + 24), acc3);
  }
  float acc = hsum(acc0, acc1, acc2, acc3);
  for (; p < k; ++p) acc += a[p] * b[p];
  return acc;
}

#else

template <typename SrcT>
inline float dot_f32(const SrcT* __restrict a, const SrcT* __restrict b,
                     std::int64_t k) {
  v8f acc0{}, acc1{};
  std::int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    acc0 += widen8(a + p) * widen8(b + p);
    acc1 += widen8(a + p + 8) * widen8(b + p + 8);
  }
  const v8f vs = acc0 + acc1;
  float acc = ((vs[0] + vs[4]) + (vs[1] + vs[5])) +
              ((vs[2] + vs[6]) + (vs[3] + vs[7]));
  for (; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

#endif

#else

template <typename SrcT>
inline float dot_f32(const SrcT* __restrict a, const SrcT* __restrict b,
                     std::int64_t k) {
  float acc = 0.0f;
  for (std::int64_t p = 0; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

#endif

#if defined(__AVX2__)

// k-direction int8 dot with exact int32 accumulation: sign-extend 16 int8 to
// int16 (vpmovsxbw) and pmaddwd them — 16 multiply-adds per instruction,
// integer-exact so the fold order is free and results are trivially
// deterministic.
inline std::int32_t dot_i8(const std::int8_t* __restrict a,
                           const std::int8_t* __restrict b, std::int64_t k) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i a0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)));
    const __m256i b0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
    const __m256i a1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p + 16)));
    const __m256i b1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p + 16)));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, b1));
  }
  const __m256i accv = _mm256_add_epi32(acc0, acc1);
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(accv),
                            _mm256_extracti128_si256(accv, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
  std::int32_t acc = _mm_cvtsi128_si32(s);
  for (; p < k; ++p)
    acc += static_cast<std::int32_t>(a[p]) * static_cast<std::int32_t>(b[p]);
  return acc;
}

#else

inline std::int32_t dot_i8(const std::int8_t* __restrict a,
                           const std::int8_t* __restrict b, std::int64_t k) {
  std::int32_t acc = 0;
  for (std::int64_t p = 0; p < k; ++p)
    acc += static_cast<std::int32_t>(a[p]) * static_cast<std::int32_t>(b[p]);
  return acc;
}

#endif

// --- element traits ----------------------------------------------------------
//
// The drivers below are written once, over a traits type that holds all that
// differs per operand type:
//
//   Src           the stored element;
//   Acc           what a k-dot accumulates in;
//   Panel, kPair  the packed-panel element, and how many consecutive k-steps
//                 one panel group interleaves (see pack_b);
//   widen         Src -> Acc;
//   dot           a contiguous k-dot, in Acc;
//   micro_kernel  the MR x NR rank-kc update of C from packed panels;
//   out           the fp32 contribution of an accumulated Acc to C[., col];
//   kSkinnyMaxK   the longest k the streaming path may sum in one Acc.

// fp32 and bf16: widen to fp32 and accumulate fp32, so bf16 only halves the
// operand traffic. The write-back is the identity.
template <typename S>
struct Fp32Accumulate {
  using Src = S;
  using Acc = float;
  using Panel = float;
  static constexpr int kPair = 1;
  static constexpr std::int64_t kSkinnyMaxK =
      std::numeric_limits<std::int64_t>::max();

  static float widen(S x) { return to_f32(x); }
  static float dot(const S* a, const S* b, std::int64_t k) {
    return dot_f32(a, b, k);
  }
  void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                    float* c, std::int64_t ldc, int rows, int cols,
                    std::int64_t /*col*/) const {
    micro_kernel_f32(kc, ap, bp, c, ldc, rows, cols);
  }
  float out(float acc, std::int64_t /*col*/) const { return acc; }
};

// int8: int16 pair panels for pmaddwd, exact int32 accumulation, and a
// per-channel dequant on write-back, (float(acc) * scale_a) * scale_b[col].
// The packed path accumulates and dequantizes one KC slice at a time, so
// across slices the sum is fp32 as in the other paths. The streaming path
// sums all of k in one int32, exact while k * 127^2 < 2^31: kSkinnyMaxK
// caps it well below that.
struct Int8 {
  using Src = std::int8_t;
  using Acc = std::int32_t;
  using Panel = std::int16_t;
  static constexpr int kPair = 2;
  static constexpr std::int64_t kSkinnyMaxK = std::int64_t{1} << 17;

  float scale_a;
  const float* scale_b;

  static std::int32_t widen(std::int8_t x) { return x; }
  static std::int32_t dot(const std::int8_t* a, const std::int8_t* b,
                          std::int64_t k) {
    return dot_i8(a, b, k);
  }
  void micro_kernel(std::int64_t kc2, const std::int16_t* ap,
                    const std::int16_t* bp, float* c, std::int64_t ldc,
                    int rows, int cols, std::int64_t col) const {
    micro_kernel_i8(kc2, ap, bp, c, ldc, rows, cols, scale_a, scale_b + col);
  }
  float out(std::int32_t acc, std::int64_t col) const {
    return (static_cast<float>(acc) * scale_a) * scale_b[col];
  }
};

// --- drivers -------------------------------------------------------------------

// Pack op(B)[pc:pc+kc, j0:j0+nc] into ceil(nc/NR) panels of NR columns,
// zero-padding ragged columns and an odd k tail. Within a panel, k runs in
// groups of kPair consecutive steps: element (p, j) lands at
// [p / kPair][j][p % kPair]. With kPair 1 that is plain rows of NR (fp32 and
// bf16, widened here once so the micro-kernel needs no dtype awareness);
// with kPair 2 it is the interleaved int16 pairs that pmaddwd multiplies.
template <typename T>
void pack_b(bool trans_b, const typename T::Src* b, std::int64_t ldb,
            std::int64_t pc, std::int64_t j0, std::int64_t kc, std::int64_t nc,
            typename T::Panel* bp) {
  using Panel = typename T::Panel;
  constexpr int KP = T::kPair;
  const std::int64_t kg = (kc + KP - 1) / KP;
  const std::int64_t panels = (nc + NR - 1) / NR;
  for (std::int64_t pj = 0; pj < panels; ++pj) {
    const std::int64_t jc = j0 + pj * NR;
    const int cols = static_cast<int>(std::min<std::int64_t>(NR, j0 + nc - jc));
    Panel* __restrict dst = bp + pj * kg * NR * KP;
    if (cols < NR || kc % KP != 0)
      std::memset(dst, 0, sizeof(Panel) * kg * NR * KP);
    if (!trans_b) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const typename T::Src* __restrict src = b + (pc + p) * ldb + jc;
        Panel* __restrict row = dst + (p / KP) * NR * KP + p % KP;
        for (int jj = 0; jj < cols; ++jj)
          row[jj * KP] = static_cast<Panel>(T::widen(src[jj]));
      }
    } else {
      // op(B)(p, j) = B[j, p]: one strided column write per source row.
      for (int jj = 0; jj < cols; ++jj) {
        const typename T::Src* __restrict src = b + (jc + jj) * ldb + pc;
        for (std::int64_t p = 0; p < kc; ++p)
          dst[(p / KP) * NR * KP + jj * KP + p % KP] =
              static_cast<Panel>(T::widen(src[p]));
      }
    }
  }
}

// Pack op(A)[i0:i0+mc, pc:pc+kc] into ceil(mc/MR) panels of MR rows, in the
// same k-group layout as pack_b.
template <typename T>
void pack_a(bool trans_a, const typename T::Src* a, std::int64_t lda,
            std::int64_t i0, std::int64_t pc, std::int64_t mc, std::int64_t kc,
            typename T::Panel* ap) {
  using Panel = typename T::Panel;
  constexpr int KP = T::kPair;
  const std::int64_t kg = (kc + KP - 1) / KP;
  const std::int64_t panels = (mc + MR - 1) / MR;
  for (std::int64_t pi = 0; pi < panels; ++pi) {
    const std::int64_t ic = i0 + pi * MR;
    const int rows = static_cast<int>(std::min<std::int64_t>(MR, i0 + mc - ic));
    Panel* __restrict dst = ap + pi * kg * MR * KP;
    if (rows < MR || kc % KP != 0)
      std::memset(dst, 0, sizeof(Panel) * kg * MR * KP);
    if (!trans_a) {
      for (int ii = 0; ii < rows; ++ii) {
        const typename T::Src* __restrict src = a + (ic + ii) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p)
          dst[(p / KP) * MR * KP + ii * KP + p % KP] =
              static_cast<Panel>(T::widen(src[p]));
      }
    } else {
      // op(A)(i, p) = A[p, i]: contiguous row reads.
      for (std::int64_t p = 0; p < kc; ++p) {
        const typename T::Src* __restrict src = a + (pc + p) * lda + ic;
        Panel* __restrict col = dst + (p / KP) * MR * KP + p % KP;
        for (int ii = 0; ii < rows; ++ii)
          col[ii * KP] = static_cast<Panel>(T::widen(src[ii]));
      }
    }
  }
}

// Apply the epilogue to the C block rows [row0, row0+rows) x cols
// [col0, col0+cols). Indices are absolute so bias/mask/pre line up with the
// full output.
void apply_epilogue(const GemmEpilogue& ep, float* c, std::int64_t ldc,
                    std::int64_t row0, std::int64_t rows, std::int64_t col0,
                    std::int64_t cols) {
  for (std::int64_t i = row0; i < row0 + rows; ++i) {
    float* __restrict c_row = c + i * ldc;
    for (std::int64_t j = col0; j < col0 + cols; ++j) {
      float v = c_row[j];
      if (ep.bias != nullptr) v += ep.bias[j];
      if (ep.pre_activation != nullptr) ep.pre_activation[i * ldc + j] = v;
      if (ep.gelu) v = gelu_scalar(v);
      if (ep.dropout_mask != nullptr) v *= ep.dropout_mask[i * ldc + j];
      c_row[j] = v;
    }
  }
}

// Direct loops for products too small to amortize packing. Never skips zero
// operands: 0 * NaN must stay NaN. The NT loop sums each k-dot in Acc and
// writes it back once; the NN and TN loops write back one product at a time,
// straight into C.
template <typename T>
void gemm_direct(const T& tr, bool trans_a, bool trans_b, std::int64_t m,
                 std::int64_t n, std::int64_t k,
                 const typename T::Src* __restrict a, std::int64_t lda,
                 const typename T::Src* __restrict b, std::int64_t ldb,
                 float* __restrict c, std::int64_t ldc) {
  using Acc = typename T::Acc;
  if (!trans_a && !trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      const typename T::Src* __restrict a_row = a + i * lda;
      float* __restrict c_row = c + i * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const Acc a_val = T::widen(a_row[p]);
        const typename T::Src* __restrict b_row = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j)
          c_row[j] += tr.out(a_val * T::widen(b_row[j]), j);
      }
    }
  } else if (!trans_a && trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      const typename T::Src* __restrict a_row = a + i * lda;
      float* __restrict c_row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const typename T::Src* __restrict b_row = b + j * ldb;
        Acc acc = 0;
        for (std::int64_t p = 0; p < k; ++p)
          acc += T::widen(a_row[p]) * T::widen(b_row[p]);
        c_row[j] += tr.out(acc, j);
      }
    }
  } else {
    for (std::int64_t p = 0; p < k; ++p) {
      const typename T::Src* __restrict a_row = a + p * lda;
      const typename T::Src* __restrict b_row = b + p * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const Acc a_val = T::widen(a_row[i]);
        float* __restrict c_row = c + i * ldc;
        for (std::int64_t j = 0; j < n; ++j)
          c_row[j] += tr.out(a_val * T::widen(b_row[j]), j);
      }
    }
  }
}

// Skinny-m GEMM (m <= kGemmSkinnyRows, A not transposed): stream op(B)
// exactly once, widening on load — no packed panel is written or re-read.
// With so few rows the packed path's pack-then-reload doubles the traffic
// that dominates these bandwidth-bound shapes (a decode-row Linear streams
// its weight once instead of packing it every call). Workers own disjoint
// column ranges, so each C element is produced by exactly one worker in a
// fixed order: bit-identical across thread counts.
template <typename T>
void gemm_skinny(const T& tr, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, const typename T::Src* a, std::int64_t lda,
                 const typename T::Src* b, std::int64_t ldb, float* c,
                 std::int64_t ldc, const GemmEpilogue& epilogue) {
  // Column chunks: at least ~256K multiply-adds per task, and at least a few
  // cache lines wide so adjacent workers don't split lines of B rows.
  std::int64_t grain = std::max<std::int64_t>(
      32, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, m * k));
  grain = ((grain + 31) / 32) * 32;
  parallel_for_range(
      0, static_cast<std::size_t>(n), static_cast<std::size_t>(grain),
      [&](std::size_t lo_s, std::size_t hi_s) {
        const std::int64_t lo = static_cast<std::int64_t>(lo_s);
        const std::int64_t hi = static_cast<std::int64_t>(hi_s);
        if (!trans_b) {
          for (std::int64_t p = 0; p < k; ++p) {
            const typename T::Src* __restrict b_row = b + p * ldb;
            for (std::int64_t i = 0; i < m; ++i) {
              const typename T::Acc a_val = T::widen(a[i * lda + p]);
              float* __restrict c_row = c + i * ldc;
              for (std::int64_t j = lo; j < hi; ++j)
                c_row[j] += tr.out(a_val * T::widen(b_row[j]), j);
            }
          }
        } else {
          // op(B) row j is B[j, :]: one contiguous k-dot per output. A is at
          // most kGemmSkinnyRows rows and stays cache-hot across all j.
          for (std::int64_t j = lo; j < hi; ++j) {
            const typename T::Src* __restrict b_row = b + j * ldb;
            for (std::int64_t i = 0; i < m; ++i)
              c[i * ldc + j] += tr.out(T::dot(a + i * lda, b_row, k), j);
          }
        }
        if (!epilogue.empty())
          apply_epilogue(epilogue, c, ldc, 0, m, lo, hi - lo);
      });
}

// The three-level blocked path (see the header comment).
template <typename T>
void gemm_packed(const T& tr, bool trans_a, bool trans_b, std::int64_t m,
                 std::int64_t n, std::int64_t k, const typename T::Src* a,
                 std::int64_t lda, const typename T::Src* b, std::int64_t ldb,
                 float* c, std::int64_t ldc, const GemmEpilogue& epilogue) {
  using Panel = typename T::Panel;
  constexpr int KP = T::kPair;
  // Panels live in the fp32 Workspace slabs; narrower panel elements pack
  // several to a float.
  const auto slab_floats = [](std::int64_t elements) {
    return static_cast<std::size_t>(
        (elements * static_cast<std::int64_t>(sizeof(Panel)) + 3) / 4);
  };
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    const std::int64_t kg = (kc + KP - 1) / KP;
    // The epilogue fires once per C element, after its final accumulation.
    const bool last_kc_slice = pc + kc == k;
    for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
      const std::int64_t nc = std::min(kGemmNC, n - jc);
      const std::int64_t n_panels = (nc + NR - 1) / NR;
      Workspace::Buffer b_panel =
          Workspace::local().take(slab_floats(n_panels * kg * NR * KP));
      Panel* bp = reinterpret_cast<Panel*>(b_panel.data());
      pack_b<T>(trans_b, b, ldb, pc, jc, kc, nc, bp);

      // Chunk rows so each task runs at least ~256K multiply-adds. The grain
      // is rounded up to a multiple of MR so chunk boundaries (which
      // parallel_for_range keeps grain-aligned) never split a micro-panel:
      // a mid-panel boundary would push interior tiles down the scalar
      // ragged-edge write-back. The packed B panel is shared read-only
      // across workers.
      std::int64_t grain = std::max<std::int64_t>(
          MR, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, nc * kc));
      grain = ((grain + MR - 1) / MR) * MR;
      parallel_for_range(
          0, static_cast<std::size_t>(m), static_cast<std::size_t>(grain),
          [&](std::size_t lo, std::size_t hi) {
            const std::int64_t chunk_rows = std::min(
                kGemmMC, static_cast<std::int64_t>(hi - lo));
            Workspace::Buffer a_panel = Workspace::local().take(slab_floats(
                ((chunk_rows + MR - 1) / MR) * kg * MR * KP));
            Panel* ap = reinterpret_cast<Panel*>(a_panel.data());
            for (std::int64_t ic = static_cast<std::int64_t>(lo);
                 ic < static_cast<std::int64_t>(hi); ic += kGemmMC) {
              const std::int64_t mc =
                  std::min(kGemmMC, static_cast<std::int64_t>(hi) - ic);
              pack_a<T>(trans_a, a, lda, ic, pc, mc, kc, ap);
              const std::int64_t m_panels = (mc + MR - 1) / MR;
              for (std::int64_t pj = 0; pj < n_panels; ++pj) {
                const int cols = static_cast<int>(
                    std::min<std::int64_t>(NR, nc - pj * NR));
                for (std::int64_t pi = 0; pi < m_panels; ++pi) {
                  const int rows = static_cast<int>(
                      std::min<std::int64_t>(MR, mc - pi * MR));
                  tr.micro_kernel(kg, ap + pi * kg * MR * KP,
                                  bp + pj * kg * NR * KP,
                                  c + (ic + pi * MR) * ldc + jc + pj * NR,
                                  ldc, rows, cols, jc + pj * NR);
                }
              }
              if (last_kc_slice && !epilogue.empty()) {
                // Fused write-back: the mc x nc block was just accumulated
                // and is still hot in this worker's cache.
                apply_epilogue(epilogue, c, ldc, ic, mc, jc, nc);
              }
            }
          });
    }
  }
}

// The one GEMM driver. Tiny products take the direct loops, skinny ones (few
// rows of a non-transposed A) stream op(B) once, everything else runs the
// blocked path.
template <typename T>
void gemm_driver(const T& tr, bool trans_a, bool trans_b, std::int64_t m,
                 std::int64_t n, std::int64_t k, const typename T::Src* a,
                 std::int64_t lda, const typename T::Src* b, std::int64_t ldb,
                 float* c, std::int64_t ldc, const GemmEpilogue& epilogue) {
  CARAML_CHECK_MSG(!(trans_a && trans_b), "gemm: T·T is unsupported");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Nothing to accumulate, but the epilogue (e.g. a bias) still applies to
    // the caller-initialized C.
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }
  if (m * n * k <= kGemmDirectThreshold) {
    gemm_direct(tr, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }
  if (!trans_a && m <= kGemmSkinnyRows && k <= T::kSkinnyMaxK) {
    gemm_skinny(tr, trans_b, m, n, k, a, lda, b, ldb, c, ldc, epilogue);
    return;
  }
  gemm_packed(tr, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, epilogue);
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc,
          const GemmEpilogue& epilogue) {
  gemm_driver(Fp32Accumulate<float>{}, trans_a, trans_b, m, n, k, a, lda, b,
              ldb, c, ldc, epilogue);
}

void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::uint16_t* a, std::int64_t lda,
               const std::uint16_t* b, std::int64_t ldb, float* c,
               std::int64_t ldc, const GemmEpilogue& epilogue) {
  gemm_driver(Fp32Accumulate<std::uint16_t>{}, trans_a, trans_b, m, n, k, a,
              lda, b, ldb, c, ldc, epilogue);
}

void gemm_i8(std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
             std::int64_t ldb, float scale_a, const float* scale_b, float* c,
             std::int64_t ldc, const GemmEpilogue& epilogue) {
  gemm_driver(Int8{scale_a, scale_b}, false, true, m, n, k, a, lda, b, ldb, c,
              ldc, epilogue);
}

}  // namespace caraml::tensor::detail
