// Fundamental types of the mini DL framework substrate.
//
// The substrate executes *memory behaviour*, not arithmetic: a tensor is a
// (shape, dtype) record whose byte size is what matters; an operator is a
// recipe for which blocks get allocated and freed, in what order, with what
// backend-specific transient workspaces. See DESIGN.md §1 for why this
// preserves everything the paper's estimation problem depends on.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace xmem::fw {

enum class DType : std::uint8_t { kF32, kF16, kBF16, kI64, kI32, kU8 };

constexpr std::int64_t dtype_size(DType dtype) {
  switch (dtype) {
    case DType::kF32: return 4;
    case DType::kF16: return 2;
    case DType::kBF16: return 2;
    case DType::kI64: return 8;
    case DType::kI32: return 4;
    case DType::kU8: return 1;
  }
  return 4;
}

struct TensorDesc {
  std::vector<std::int64_t> shape;
  DType dtype = DType::kF32;

  TensorDesc() = default;
  TensorDesc(std::initializer_list<std::int64_t> dims, DType dt = DType::kF32)
      : shape(dims), dtype(dt) {}
  explicit TensorDesc(std::vector<std::int64_t> dims, DType dt = DType::kF32)
      : shape(std::move(dims)), dtype(dt) {}

  std::int64_t numel() const {
    std::int64_t n = 1;
    for (std::int64_t d : shape) n *= d;
    return shape.empty() ? 0 : n;
  }
  std::int64_t bytes() const { return numel() * dtype_size(dtype); }
  /// Rank-2 view used by Adafactor's factored second moment: (rows, cols)
  /// with all leading dims folded into rows. Rank-0/1 tensors return {numel, 1}.
  std::pair<std::int64_t, std::int64_t> as_matrix() const {
    if (shape.size() < 2) return {numel(), 1};
    std::int64_t rows = 1;
    for (std::size_t i = 0; i + 1 < shape.size(); ++i) rows *= shape[i];
    return {rows, shape.back()};
  }
};

enum class ModelFamily : std::uint8_t { kCnn, kTransformer };
const char* to_string(ModelFamily family);

enum class Backend : std::uint8_t { kCpu, kCuda };

enum class OptimizerKind : std::uint8_t {
  kSgd,
  kAdam,
  kAdamW,
  kRmsprop,
  kAdagrad,
  kAdafactor,
};
const char* to_string(OptimizerKind kind);
/// Parse "adamw" etc.; throws std::invalid_argument on unknown names.
OptimizerKind optimizer_from_string(const std::string& name);

/// Placement of optimizer.zero_grad() in the training loop (Figure 1).
/// kPos0 — immediately before loss.backward(): the previous iteration's
///         gradients stay alive through the whole forward pass.
/// kPos1 — at the start of the iteration: gradients die before forward.
enum class ZeroGradPlacement : std::uint8_t { kPos0BeforeBackward, kPos1IterStart };
const char* to_string(ZeroGradPlacement placement);
/// Parse "POS0"/"POS1" (also "pos0"/"pos1"); throws std::invalid_argument.
ZeroGradPlacement placement_from_string(const std::string& name);

}  // namespace xmem::fw
