// Analytic cost model of ResNet training (He et al., the paper's reference
// [8]). The CARAML ResNet50 benchmark trains ResNet50 from scratch on
// ImageNet-sized inputs; ResNet18/34 are also supported with modified
// configuration (paper §III-A2). The model enumerates every convolution of
// the actual architecture and derives FLOPs, parameters and activation
// memory per image from the layer table.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace caraml::models {

/// One convolutional (or fully connected) layer of the network.
struct ConvLayerSpec {
  std::string name;
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 0;   // square kernel; 1 for the FC head
  int stride = 1;
  int out_h = 0;    // output spatial size (out_h == out_w)
  int out_w = 0;

  /// Multiply-add FLOPs (2 * MACs) for one image, forward pass.
  double forward_flops() const;
  /// Weights (+ batch-norm scale/shift) of this layer.
  double parameters() const;
  /// Output activation elements for one image.
  double activation_elements() const;
};

enum class ResNetVariant { kResNet18, kResNet34, kResNet50 };

std::string resnet_variant_name(ResNetVariant variant);

/// The variants by the tag runs name them by.
inline constexpr std::pair<const char*, ResNetVariant> kResNetVariants[] = {
    {"resnet18", ResNetVariant::kResNet18},
    {"resnet34", ResNetVariant::kResNet34},
    {"resnet50", ResNetVariant::kResNet50}};

/// What one device holds while training a data-parallel replica.
struct ResNetDeviceMemory {
  double state = 0.0;        ///< model + optimizer state
  double activations = 0.0;  ///< stored for the backward pass
  double workspace = 3.0e9;  ///< framework workspace
  double total() const { return activations + state + workspace; }
};

/// Full network description.
struct ResNetModel {
  ResNetVariant variant = ResNetVariant::kResNet50;
  int image_size = 224;  // ImageNet resolution
  int num_classes = 1000;
  std::vector<ConvLayerSpec> layers;

  static ResNetModel build(ResNetVariant variant, int image_size = 224,
                           int num_classes = 1000);

  double forward_flops_per_image() const;
  /// Training FLOPs: backward ~= 2x forward.
  double train_flops_per_image() const { return 3.0 * forward_flops_per_image(); }
  double total_parameters() const;

  /// Peak live activation bytes per image during training (stored for the
  /// backward pass), assuming mixed precision (2 bytes/element) and that all
  /// layer outputs are kept.
  double activation_bytes_per_image() const;

  /// Weights + gradients + SGD-momentum state, fp32 master copies
  /// (TensorFlow mixed-precision training).
  double model_state_bytes() const;

  /// The footprint the simulated run allocates and the static OOM checks
  /// compare, at `images_per_device` images per step.
  ResNetDeviceMemory device_memory(std::int64_t images_per_device) const {
    return {model_state_bytes(), activation_bytes_per_image() *
                                     static_cast<double>(images_per_device)};
  }

  /// Gradient bytes exchanged per step by Horovod-style data-parallel
  /// all-reduce (fp16 compressed gradients).
  double gradient_comm_bytes() const { return total_parameters() * 2.0; }

  /// Raw input bytes per image fed by the host input pipeline (decoded
  /// HWC uint8 at the training resolution).
  double input_bytes_per_image() const {
    return 3.0 * image_size * image_size;
  }
};

/// ImageNet epoch size used throughout the paper's ResNet results.
inline constexpr std::int64_t kImagenetTrainImages = 1281167;
/// Approximate on-disk size of the ImageNet train set (page-cache model).
inline constexpr double kImagenetBytes = 146.0e9;

}  // namespace caraml::models
