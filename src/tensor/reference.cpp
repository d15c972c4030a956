#include "tensor/reference.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace caraml::tensor::reference {

Tensor matmul(const Tensor& a, const Tensor& b) {
  CARAML_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul needs 2-D tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  CARAML_CHECK_MSG(b.dim(0) == k, "matmul inner dimension mismatch");
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CARAML_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul_nt needs 2-D");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  CARAML_CHECK_MSG(b.dim(1) == k, "matmul_nt inner dimension mismatch");
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CARAML_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul_tn needs 2-D");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  CARAML_CHECK_MSG(b.dim(0) == k, "matmul_tn inner dimension mismatch");
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor matmul_i8(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, const std::int8_t* b, float scale_a,
                 const float* scale_b) {
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int64_t>(a[i * k + p]) * b[j * k + p];
      }
      c[i * n + j] = static_cast<float>(static_cast<double>(scale_a) *
                                        scale_b[j] *
                                        static_cast<double>(acc));
    }
  }
  return c;
}

Tensor softmax_rows(const Tensor& a) {
  CARAML_CHECK_MSG(a.rank() == 2, "softmax_rows needs a 2-D tensor");
  const std::int64_t rows = a.dim(0), cols = a.dim(1);
  Tensor out(a.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in_row = a.data() + r * cols;
    float* out_row = out.data() + r * cols;
    float max_value = in_row[0];
    for (std::int64_t c = 1; c < cols; ++c) {
      max_value = std::max(max_value, in_row[c]);
    }
    double total = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      out_row[c] = std::exp(in_row[c] - max_value);
      total += out_row[c];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (std::int64_t c = 0; c < cols; ++c) out_row[c] *= inv;
  }
  return out;
}

Tensor conv2d(const Tensor& input, const Tensor& weight,
              const Conv2dArgs& args) {
  CARAML_CHECK_MSG(input.rank() == 4 && weight.rank() == 4,
                   "conv2d needs NCHW input and OCHW weight");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t o = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  CARAML_CHECK_MSG(weight.dim(1) == c, "conv2d channel mismatch");
  const std::int64_t oh = (h + 2 * args.padding - kh) / args.stride + 1;
  const std::int64_t ow = (w + 2 * args.padding - kw) / args.stride + 1;
  CARAML_CHECK_MSG(oh > 0 && ow > 0, "conv output would be empty");
  Tensor out({n, o, oh, ow});
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = oy * args.stride + ky - args.padding;
                const std::int64_t ix = ox * args.stride + kx - args.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(
                           input[((img * c + ic) * h + iy) * w + ix]) *
                       weight[((oc * c + ic) * kh + ky) * kw + kx];
              }
            }
          }
          out[((img * o + oc) * oh + oy) * ow + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

}  // namespace caraml::tensor::reference
