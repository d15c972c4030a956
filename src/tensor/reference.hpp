// Naive single-threaded reference kernels.
//
// These are the seed implementations the optimized kernel library replaced,
// kept (minus the 0*NaN-dropping zero-skip bug) as the oracle for the
// kernel-equivalence test suite and for debugging numerical differences.
// Deliberately simple: no blocking, no packing, no threading — every op is a
// direct transcription of its defining formula.
#pragma once

#include "tensor/tensor.hpp"

namespace caraml::tensor::reference {

/// C = A[m,k] · B[k,n], serial triple loop with double accumulation.
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A[m,k] · B[n,k]^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// C = A[k,m]^T · B[k,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Dequantized symmetric int8 GEMM oracle for the gemm_i8 kernel:
/// C[i,j] = float(scale_a * scale_b[j] * acc) with acc the exact int32 (held
/// in int64 here) sum over qa[i,:]·qb[j,:], qa [m,k] and qb [n,k]. Serial,
/// fp64 dequant.
Tensor matmul_i8(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, const std::int8_t* b, float scale_a,
                 const float* scale_b);

/// Row-wise softmax of [rows, cols].
Tensor softmax_rows(const Tensor& a);

/// Direct (non-im2col) convolution: input [N,C,H,W], weight [O,C,kh,kw].
Tensor conv2d(const Tensor& input, const Tensor& weight,
              const Conv2dArgs& args);

}  // namespace caraml::tensor::reference
