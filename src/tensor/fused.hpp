// Fused transformer hot-path kernels.
//
// Two families live here, both built on the blocked GEMM and the per-thread
// Workspace arena:
//
// 1. Flash-attention-style causal self-attention. The head-loop formulation
//    materializes a [T, T] score matrix and a [T, T] attention matrix per
//    (batch, head) pair across five kernel launches, and caches every
//    attention matrix for backward — an O(B·H·T²) memory blowup. The fused
//    kernels instead walk query blocks of kAttentionBlock rows: causality
//    bounds each block's live key range to the prefix [0, i0 + block), so one
//    QK^T GEMM over that prefix, an exact softmax restricted to each row's
//    unmasked columns (a branchless vectorized exp — libm's scalar expf is
//    ~28% of the kernel otherwise), and one P·V GEMM finish the block.
//    Scratch tops out at block · T floats per thread; nothing proportional to
//    T² is ever allocated. Backward recomputes each block's probabilities
//    from the cached QKV projections plus the per-row log-sum-exp the forward
//    saves — O(B·H·T) extra state instead of O(B·H·T²).
//
//    Per (b, h), both kernels first stage Q/K/V (and dO in backward) from the
//    packed [B*T, 3C] QKV projection into contiguous [T, head_dim] Workspace
//    panels: the prefix GEMMs re-read K and V once per query block, and the
//    contiguous panels keep that working set at T·head_dim floats instead of
//    smearing each head row across a 3C-strided footprint. Work is
//    parallelized over (b, h) pairs; within a pair, query blocks run in a
//    fixed sequential order, so outputs are byte-identical for any
//    thread-pool size.
//
// 2. The fused linear: bias, GELU and dropout applied during the GEMM C
//    write-back (see detail::GemmEpilogue) instead of as separate passes over
//    the output, for fp32, bf16 and int8 operands.
#pragma once

#include "tensor/dtype.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace caraml::tensor::fused {

// Query-block height for the attention kernels. The score prefix
// (block · T floats, 64 KiB at T = 256) plus the staged Q/K/V panels fit
// comfortably in a 256 KiB L2 slice at practical sequence lengths.
inline constexpr std::int64_t kAttentionBlock = 64;

/// Causal attention forward over a packed QKV projection.
///
/// qkv: [B*T, 3C] row-major, laid out [Q | K | V] per row with H heads of
/// head_dim = C/H columns each. For every (b, h):
///
///   out_h = softmax(mask(Q_h · K_h^T / sqrt(head_dim))) · V_h
///
/// heads_out: [B*T, C]; head h writes columns [h*hd, (h+1)*hd).
/// lse: [B*H, T] row-major; receives the per-query-row log-sum-exp of the
/// masked, scaled scores (the statistic backward needs to recompute
/// attention tiles). Masked (future) positions are excluded before the
/// softmax, exactly like the head-loop path: a NaN in a masked score slot
/// never leaks into the output.
void causal_attention_forward(const float* qkv, std::int64_t batch,
                              std::int64_t time, std::int64_t embed,
                              std::int64_t num_heads, float* heads_out,
                              float* lse);

/// The same kernel with separate operands, for queries that are the last
/// `q_rows` positions of a key range of `time` positions: query row r of a
/// batch attends keys [0, time - q_rows + r]. q_rows == time is the packed
/// form above; a decode step passes one query row against a K/V cache.
///
/// Per batch b, q holds rows [b*q_rows, (b+1)*q_rows) with row stride
/// q_stride, k and v hold rows [b*time, (b+1)*time) with row stride
/// kv_stride; head h is columns [h*hd, (h+1)*hd) of each. heads_out is
/// [B*q_rows, C], lse [B*H, q_rows]. Pairs whose work is too small to pay
/// for a pool region (a decode step's) run inline on the caller.
void causal_attention_forward(const float* q, std::int64_t q_stride,
                              const float* k, const float* v,
                              std::int64_t kv_stride, std::int64_t batch,
                              std::int64_t q_rows, std::int64_t time,
                              std::int64_t embed, std::int64_t num_heads,
                              float* heads_out, float* lse);

/// Backward of causal_attention_forward.
///
/// Recomputes score tiles from qkv and lse (no stored attention matrices),
/// then accumulates dQ/dK/dV into d_qkv ([B*T, 3C], caller-zeroed) in the
/// same packed layout. heads_out / d_heads are the forward output and its
/// incoming gradient ([B*T, C]).
void causal_attention_backward(const float* qkv, const float* heads_out,
                               const float* d_heads, const float* lse,
                               std::int64_t batch, std::int64_t time,
                               std::int64_t embed, std::int64_t num_heads,
                               float* d_qkv);

/// What fused::linear applies to x · W^T + b during the GEMM write-back (see
/// detail::GemmEpilogue for the order). The default applies nothing.
struct LinearEpilogue {
  /// tanh-GELU after the bias.
  bool gelu = false;
  /// When non-null, receives the post-bias value [N, out]: what
  /// gelu_backward consumes.
  Tensor* pre = nullptr;
  /// When non-null, a scaled keep-mask [N, out] multiplied last
  /// (inverted-dropout convention: kept elements hold 1/(1-p), dropped 0).
  const Tensor* dropout_mask = nullptr;
};

/// out = epilogue(x · W^T + b), with x [N, in], w [out, in] and bias [out]
/// (nullptr for no bias). One overload per operand type:
///   - fp32;
///   - bf16: x and w stored bf16, widened on load, fp32 accumulation;
///   - int8 inference: x per-tensor quantized, w per-channel quantized (one
///     scale per output row), integer accumulation with the fp32 dequant
///     fused into the write-back.
/// In every case the bias, the epilogue and their operands are fp32 and
/// apply to the fp32 result, exactly as in the fp32 path.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias,
              const LinearEpilogue& epilogue = {});
Tensor linear(const Bf16Tensor& x, const Bf16Tensor& w, const Tensor* bias,
              const LinearEpilogue& epilogue = {});
Tensor linear(const QuantizedTensor& x, const QuantizedTensor& w,
              const Tensor* bias, const LinearEpilogue& epilogue = {});

}  // namespace caraml::tensor::fused
