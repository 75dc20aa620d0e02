// CNN zoo builders (the 12 convolutional models of Table 2).
//
// Architectures follow the torchvision implementations; only the input
// resolution (32x32) and classifier width (100 classes) are CIFAR-scale.
// Parameter counts are therefore the published ones for every model whose
// parameters are input-independent (everything except the VGG classifier).
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "models/op_factory.h"
#include "models/zoo.h"

namespace xmem::models::detail {

namespace {

using fw::ModelDescriptor;
using fw::ModelFamily;
using fw::ModuleSpec;
using fw::OpSpec;
using fw::TensorDesc;

constexpr std::int64_t kImageSize = 32;
constexpr std::int64_t kClasses = 100;

/// Sequential CNN assembly: tracks the running (B, C, H, W) shape and
/// appends one ModuleSpec per layer-group.
class CnnNet {
 public:
  CnnNet(std::string name, int year, int batch)
      : batch_(batch), channels_(3), h_(kImageSize), w_(kImageSize) {
    model_.name = std::move(name);
    model_.family = ModelFamily::kCnn;
    model_.year = year;
    model_.batch_size = batch;
    model_.input_bytes = batch_ * 3 * kImageSize * kImageSize * 4;
    model_.target_bytes = batch_ * 8;  // i64 class labels
  }

  std::int64_t channels() const { return channels_; }
  std::int64_t spatial() const { return h_; }

  /// Conv2d(+bias) with no norm (VGG style); ReLU is inplace (no memory).
  void conv_relu(std::int64_t c_out, int kernel, int stride, int padding) {
    ModuleSpec m;
    m.name = next_name("Conv2d");
    m.kind = "Conv2d";
    m.params.push_back(TensorDesc({c_out, channels_, kernel, kernel}));
    m.params.push_back(TensorDesc({c_out}));
    m.ops.push_back(
        conv_op(batch_, channels_, h_, w_, c_out, kernel, stride, padding, 1));
    channels_ = c_out;
    model_.modules.push_back(std::move(m));
  }

  /// Conv2d (no bias) + BatchNorm2d (+ inplace activation).
  void conv_bn_act(std::int64_t c_out, int kernel, int stride, int padding,
                   std::int64_t groups = 1) {
    ModuleSpec m;
    m.name = next_name("ConvBNAct");
    m.kind = "ConvBNAct";
    m.params.push_back(
        TensorDesc({c_out, channels_ / groups, kernel, kernel}));
    m.params.push_back(TensorDesc({c_out}));  // bn weight
    m.params.push_back(TensorDesc({c_out}));  // bn bias
    m.ops.push_back(conv_op(batch_, channels_, h_, w_, c_out, kernel, stride,
                            padding, groups));
    m.ops.push_back(batch_norm_op(batch_, c_out, h_, w_));
    channels_ = c_out;
    model_.modules.push_back(std::move(m));
  }

  void max_pool(int kernel, int stride) {
    ModuleSpec m;
    m.name = next_name("MaxPool2d");
    m.kind = "MaxPool2d";
    m.ops.push_back(max_pool_op(batch_, channels_, h_, w_, kernel, stride));
    model_.modules.push_back(std::move(m));
  }

  /// Squeeze-and-Excitation block (MobileNetV3 / MnasNet / RegNetY).
  void se_block(std::int64_t reduced) {
    ModuleSpec m;
    m.name = next_name("SqueezeExcitation");
    m.kind = "SqueezeExcitation";
    m.params.push_back(TensorDesc({reduced, channels_, 1, 1}));
    m.params.push_back(TensorDesc({reduced}));
    m.params.push_back(TensorDesc({channels_, reduced, 1, 1}));
    m.params.push_back(TensorDesc({channels_}));
    std::int64_t one_h = h_, one_w = w_;
    m.ops.push_back(global_avg_pool_op(batch_, channels_, one_h, one_w));
    OpSpec fc1 = linear_op(batch_, channels_, reduced);
    OpSpec fc2 = linear_op(batch_, reduced, channels_);
    m.ops.push_back(std::move(fc1));
    m.ops.push_back(std::move(fc2));
    // Channel-wise rescale of the full feature map.
    m.ops.push_back(activation_op(batch_ * channels_, h_ * w_, "aten::mul"));
    model_.modules.push_back(std::move(m));
  }

  /// ConvNeXt block: 7x7 depthwise conv, LayerNorm, 4x MLP with GELU,
  /// layer-scale gamma.
  void convnext_block() {
    const std::int64_t c = channels_;
    ModuleSpec m;
    m.name = next_name("CNBlock");
    m.kind = "CNBlock";
    m.params.push_back(TensorDesc({c, 1, 7, 7}));  // depthwise
    m.params.push_back(TensorDesc({c}));           // dw bias
    m.params.push_back(TensorDesc({c}));           // ln weight
    m.params.push_back(TensorDesc({c}));           // ln bias
    m.params.push_back(TensorDesc({4 * c, c}));    // pw1
    m.params.push_back(TensorDesc({4 * c}));
    m.params.push_back(TensorDesc({c, 4 * c}));    // pw2
    m.params.push_back(TensorDesc({c}));
    m.params.push_back(TensorDesc({c}));           // layer scale gamma
    m.ops.push_back(conv_op(batch_, c, h_, w_, c, 7, 1, 3, c));
    const std::int64_t tokens = batch_ * h_ * w_;
    m.ops.push_back(layer_norm_op(tokens, c));
    m.ops.push_back(linear_op(tokens, c, 4 * c));
    m.ops.push_back(activation_op(tokens, 4 * c, "aten::gelu"));
    m.ops.push_back(linear_op(tokens, 4 * c, c));
    model_.modules.push_back(std::move(m));
  }

  /// ConvNeXt downsample: LayerNorm + 2x2/2 conv.
  void convnext_downsample(std::int64_t c_out) {
    ModuleSpec m;
    m.name = next_name("CNDownsample");
    m.kind = "CNDownsample";
    m.params.push_back(TensorDesc({channels_}));
    m.params.push_back(TensorDesc({channels_}));
    m.params.push_back(TensorDesc({c_out, channels_, 2, 2}));
    m.params.push_back(TensorDesc({c_out}));
    m.ops.push_back(layer_norm_op(batch_ * h_ * w_, channels_));
    m.ops.push_back(conv_op(batch_, channels_, h_, w_, c_out, 2, 2, 0, 1));
    channels_ = c_out;
    model_.modules.push_back(std::move(m));
  }

  /// Global pool + (optional hidden FC layers) + linear head + CE loss.
  void classifier(const std::vector<std::int64_t>& hidden_dims) {
    {
      ModuleSpec m;
      m.name = next_name("AdaptiveAvgPool2d");
      m.kind = "AdaptiveAvgPool2d";
      m.ops.push_back(global_avg_pool_op(batch_, channels_, h_, w_));
      model_.modules.push_back(std::move(m));
    }
    std::int64_t features = channels_;
    for (std::int64_t dim : hidden_dims) {
      ModuleSpec m;
      m.name = next_name("Linear");
      m.kind = "Linear";
      m.params.push_back(TensorDesc({dim, features}));
      m.params.push_back(TensorDesc({dim}));
      m.ops.push_back(linear_op(batch_, features, dim));
      features = dim;
      model_.modules.push_back(std::move(m));
    }
    {
      ModuleSpec head;
      head.name = next_name("Linear");
      head.kind = "Linear";
      head.params.push_back(TensorDesc({kClasses, features}));
      head.params.push_back(TensorDesc({kClasses}));
      OpSpec logits = linear_op(batch_, features, kClasses,
                                /*save_output=*/false);
      head.ops.push_back(std::move(logits));
      model_.modules.push_back(std::move(head));
    }
    {
      ModuleSpec loss;
      loss.name = next_name("CrossEntropyLoss");
      loss.kind = "CrossEntropyLoss";
      loss.ops.push_back(log_softmax_op(batch_, kClasses));
      loss.ops.push_back(nll_loss_op(batch_, kClasses));
      model_.modules.push_back(std::move(loss));
    }
  }

  ModelDescriptor take() { return std::move(model_); }

 private:
  std::string next_name(const char* kind) {
    return std::string(kind) + "_" + std::to_string(index_++);
  }

  ModelDescriptor model_;
  std::int64_t batch_;
  std::int64_t channels_;
  std::int64_t h_;
  std::int64_t w_;
  int index_ = 0;
};

ModelDescriptor build_vgg(const std::string& name, int batch, bool deep) {
  CnnNet net(name, 2014, batch);
  const std::vector<std::vector<std::int64_t>> stages =
      deep ? std::vector<std::vector<std::int64_t>>{{64, 64},
                                                    {128, 128},
                                                    {256, 256, 256, 256},
                                                    {512, 512, 512, 512},
                                                    {512, 512, 512, 512}}
           : std::vector<std::vector<std::int64_t>>{{64, 64},
                                                    {128, 128},
                                                    {256, 256, 256},
                                                    {512, 512, 512},
                                                    {512, 512, 512}};
  for (const auto& stage : stages) {
    for (std::int64_t width : stage) net.conv_relu(width, 3, 1, 1);
    net.max_pool(2, 2);
  }
  net.classifier({4096, 4096});
  return net.take();
}

void resnet_bottleneck(CnnNet& net, std::int64_t width, int stride,
                       bool downsample) {
  const std::int64_t out = width * 4;
  net.conv_bn_act(width, 1, 1, 0);
  net.conv_bn_act(width, 3, stride, 1);
  net.conv_bn_act(out, 1, 1, 0);
  if (downsample) {
    // Shortcut projection runs on the block input; approximating its input
    // channel count with the current width keeps the builder sequential and
    // costs <1% of parameters.
    net.conv_bn_act(out, 1, 1, 0);
  }
}

ModelDescriptor build_resnet(const std::string& name, int batch,
                             const std::vector<int>& depths) {
  CnnNet net(name, 2016, batch);
  net.conv_bn_act(64, 7, 2, 3);
  net.max_pool(3, 2);
  const std::vector<std::int64_t> widths = {64, 128, 256, 512};
  for (std::size_t stage = 0; stage < depths.size(); ++stage) {
    for (int block = 0; block < depths[stage]; ++block) {
      const int stride = (stage > 0 && block == 0) ? 2 : 1;
      resnet_bottleneck(net, widths[stage], stride, block == 0);
    }
  }
  net.classifier({});
  return net.take();
}

void inverted_residual(CnnNet& net, std::int64_t expand_ratio,
                       std::int64_t c_out, int kernel, int stride,
                       std::int64_t se_reduced = 0) {
  const std::int64_t c_in = net.channels();
  const std::int64_t expanded = c_in * expand_ratio;
  if (expand_ratio != 1) net.conv_bn_act(expanded, 1, 1, 0);
  net.conv_bn_act(expanded, kernel, stride, kernel / 2, expanded);
  if (se_reduced > 0) net.se_block(se_reduced);
  net.conv_bn_act(c_out, 1, 1, 0);  // linear projection (no activation)
}

ModelDescriptor build_mobilenet_v2(int batch) {
  CnnNet net("MobileNetV2", 2018, batch);
  net.conv_bn_act(32, 3, 2, 1);
  struct Stage { std::int64_t t, c; int n, s; };
  const Stage stages[] = {{1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2},
                          {6, 64, 4, 2},  {6, 96, 3, 1},  {6, 160, 3, 2},
                          {6, 320, 1, 1}};
  for (const auto& st : stages) {
    for (int i = 0; i < st.n; ++i) {
      inverted_residual(net, st.t, st.c, 3, i == 0 ? st.s : 1);
    }
  }
  net.conv_bn_act(1280, 1, 1, 0);
  net.classifier({});
  return net.take();
}

ModelDescriptor build_mobilenet_v3(const std::string& name, int batch,
                                   bool large) {
  CnnNet net(name, 2019, batch);
  net.conv_bn_act(16, 3, 2, 1);
  struct Row { std::int64_t exp, out; int k, s; bool se; };
  if (large) {
    const Row rows[] = {
        {1, 16, 3, 1, false},  {4, 24, 3, 2, false},  {3, 24, 3, 1, false},
        {3, 40, 5, 2, true},   {3, 40, 5, 1, true},   {3, 40, 5, 1, true},
        {6, 80, 3, 2, false},  {2, 80, 3, 1, false},  {2, 80, 3, 1, false},
        {2, 80, 3, 1, false},  {6, 112, 3, 1, true},  {6, 112, 3, 1, true},
        {6, 160, 5, 2, true},  {6, 160, 5, 1, true},  {6, 160, 5, 1, true}};
    for (const auto& r : rows) {
      inverted_residual(net, r.exp, r.out, r.k, r.s,
                        r.se ? std::max<std::int64_t>(8, r.out / 4) : 0);
    }
    net.conv_bn_act(960, 1, 1, 0);
    net.classifier({1280});
  } else {
    const Row rows[] = {
        {1, 16, 3, 2, true},   {4, 24, 3, 2, false}, {4, 24, 3, 1, false},
        {4, 40, 5, 2, true},   {6, 40, 5, 1, true},  {6, 40, 5, 1, true},
        {3, 48, 5, 1, true},   {3, 48, 5, 1, true},  {6, 96, 5, 2, true},
        {6, 96, 5, 1, true},   {6, 96, 5, 1, true}};
    for (const auto& r : rows) {
      inverted_residual(net, r.exp, r.out, r.k, r.s,
                        r.se ? std::max<std::int64_t>(8, r.out / 4) : 0);
    }
    net.conv_bn_act(576, 1, 1, 0);
    net.classifier({1024});
  }
  return net.take();
}

ModelDescriptor build_mnasnet(int batch) {
  CnnNet net("MnasNet", 2019, batch);
  net.conv_bn_act(32, 3, 2, 1);
  net.conv_bn_act(32, 3, 1, 1, 32);  // separable stem, depthwise half
  net.conv_bn_act(16, 1, 1, 0);      // separable stem, pointwise half
  struct Row { std::int64_t t, c; int n, k, s; bool se; };
  const Row rows[] = {{3, 24, 3, 3, 2, false}, {3, 40, 3, 5, 2, true},
                      {6, 80, 3, 5, 2, false}, {6, 96, 2, 3, 1, true},
                      {6, 192, 4, 5, 2, true}, {6, 320, 1, 3, 1, false}};
  for (const auto& r : rows) {
    for (int i = 0; i < r.n; ++i) {
      inverted_residual(net, r.t, r.c, r.k, i == 0 ? r.s : 1,
                        r.se ? std::max<std::int64_t>(8, r.c / 4) : 0);
    }
  }
  net.conv_bn_act(1280, 1, 1, 0);
  net.classifier({});
  return net.take();
}

ModelDescriptor build_regnet(const std::string& name, int batch, bool with_se) {
  // RegNet(X|Y)-400MF: depths [1,2,7,12], widths [32,64,160,384], group 16.
  CnnNet net(name, 2020, batch);
  net.conv_bn_act(32, 3, 2, 1);
  const std::vector<int> depths = {1, 2, 7, 12};
  const std::vector<std::int64_t> widths = {32, 64, 160, 384};
  constexpr std::int64_t kGroupWidth = 16;
  for (std::size_t stage = 0; stage < depths.size(); ++stage) {
    for (int block = 0; block < depths[stage]; ++block) {
      const std::int64_t width = widths[stage];
      const int stride = block == 0 ? 2 : 1;
      net.conv_bn_act(width, 1, 1, 0);
      net.conv_bn_act(width, 3, stride, 1, width / kGroupWidth);
      if (with_se) net.se_block(std::max<std::int64_t>(8, width / 4));
      net.conv_bn_act(width, 1, 1, 0);
      if (block == 0) net.conv_bn_act(width, 1, 1, 0);  // projection shortcut
    }
  }
  net.classifier({});
  return net.take();
}

ModelDescriptor build_convnext(const std::string& name, int batch, bool base) {
  CnnNet net(name, 2022, batch);
  const std::vector<int> depths = base ? std::vector<int>{3, 3, 27, 3}
                                       : std::vector<int>{3, 3, 9, 3};
  const std::vector<std::int64_t> widths =
      base ? std::vector<std::int64_t>{128, 256, 512, 1024}
           : std::vector<std::int64_t>{96, 192, 384, 768};
  // Patchify stem: 4x4 conv stride 4 + LayerNorm.
  net.conv_bn_act(widths[0], 4, 4, 0);
  for (std::size_t stage = 0; stage < depths.size(); ++stage) {
    if (stage > 0) net.convnext_downsample(widths[stage]);
    for (int block = 0; block < depths[stage]; ++block) net.convnext_block();
  }
  net.classifier({});
  return net.take();
}

}  // namespace

bool is_cnn_name(const std::string& name) {
  static const std::vector<std::string> known = cnn_model_names();
  return std::find(known.begin(), known.end(), name) != known.end();
}

ModelDescriptor build_cnn(const std::string& name, int batch_size) {
  if (name == "VGG16") return build_vgg(name, batch_size, false);
  if (name == "VGG19") return build_vgg(name, batch_size, true);
  if (name == "ResNet101") {
    return build_resnet(name, batch_size, {3, 4, 23, 3});
  }
  if (name == "ResNet152") {
    return build_resnet(name, batch_size, {3, 8, 36, 3});
  }
  if (name == "MobileNetV2") return build_mobilenet_v2(batch_size);
  if (name == "MobileNetV3Small") {
    return build_mobilenet_v3(name, batch_size, false);
  }
  if (name == "MobileNetV3Large") {
    return build_mobilenet_v3(name, batch_size, true);
  }
  if (name == "MnasNet") return build_mnasnet(batch_size);
  if (name == "RegNetX400MF") return build_regnet(name, batch_size, false);
  if (name == "RegNetY400MF") return build_regnet(name, batch_size, true);
  if (name == "ConvNeXtTiny") return build_convnext(name, batch_size, false);
  if (name == "ConvNeXtBase") return build_convnext(name, batch_size, true);
  throw std::invalid_argument("unknown CNN model: " + name);
}

}  // namespace xmem::models::detail
