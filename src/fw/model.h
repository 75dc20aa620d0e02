// Model description: modules, operators, and their memory recipes.
//
// A ModelDescriptor is built *for a specific batch size* — every byte count
// in it is concrete. The zoo builders (src/models) compute these from real
// architecture math (conv shape arithmetic, attention/MLP dimensions,
// vocabulary sizes), so parameter counts and activation footprints track the
// published models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fw/types.h"

namespace xmem::fw {

/// One forward operator and the memory recipe for it and its backward twin.
/// Backend-dependent fields come in {cpu, gpu} pairs; the executor picks one
/// side, and the difference between the sides is exactly the CPU→GPU
/// divergence the paper's pipeline has to survive (footnote 3).
struct OpSpec {
  std::string name;  ///< aten-style kernel name, e.g. "aten::convolution"

  std::int64_t output_bytes = 0;  ///< forward output activation
  /// Output retained for backward ("saved tensor"). If false the output dies
  /// as soon as the next op has consumed it.
  bool output_saved = true;
  /// Extra saved-for-backward payload (softmax probabilities, BN statistics,
  /// dropout masks ...), per backend.
  std::int64_t saved_bytes_cpu = 0;
  std::int64_t saved_bytes_gpu = 0;
  /// Transient forward workspace (im2col tiles vs cuDNN workspaces ...),
  /// allocated at op start and freed at op end.
  std::int64_t workspace_cpu = 0;
  std::int64_t workspace_gpu = 0;
  /// Transient backward workspace.
  std::int64_t bwd_workspace_cpu = 0;
  std::int64_t bwd_workspace_gpu = 0;
  /// Gradient w.r.t. this op's *input*, allocated by the backward op; forms
  /// the moving gradient chain of backpropagation.
  std::int64_t grad_input_bytes = 0;
  /// True on the primary op of a parameter-owning module: its backward
  /// allocates the module's parameter gradients (conv_backward, addmm
  /// backward, ...).
  bool allocates_param_grads = false;
  /// Approximate work, used only by the duration model (timestamps).
  double gflops = 0.0;
  /// cuDNN benchmark-mode candidates: on GPU, iteration 1 probes algorithm
  /// choices with trial workspaces of this total size (freed immediately,
  /// but the caching allocator retains the grown segments). Zero for ops
  /// without algorithm search.
  std::int64_t benchmark_trial_bytes_gpu = 0;
};

/// A named module (layer): parameters plus the forward op sequence.
struct ModuleSpec {
  std::string name;  ///< hierarchical, e.g. "features.3.Conv2d"
  std::string kind;  ///< "Conv2d", "Linear", "Attention", ...
  std::vector<TensorDesc> params;
  std::vector<OpSpec> ops;

  std::int64_t param_bytes() const {
    std::int64_t total = 0;
    for (const auto& p : params) total += p.bytes();
    return total;
  }
};

struct ModelDescriptor {
  std::string name;
  ModelFamily family = ModelFamily::kCnn;
  int year = 2020;  ///< publication year; drives attention-impl selection
  int batch_size = 0;
  std::vector<ModuleSpec> modules;  ///< forward order; backward walks reversed

  std::int64_t input_bytes = 0;   ///< one batch of inputs (already × batch)
  std::int64_t target_bytes = 0;  ///< one batch of labels

  /// Extra persistent bytes allocated at model-load time (e.g. the fp16
  /// parameter mirror of a mixed-precision variant; see models/amp.h).
  std::int64_t extra_persistent_bytes = 0;
  /// Gradient bytes per parameter element relative to the parameter dtype
  /// (1.0 for fp32 training; 0.5 under autocast where grads are fp16).
  double grad_bytes_scale = 1.0;

  // Model-level scalar facts used by the data-driven baselines as features.
  std::int64_t seq_len = 0;      ///< transformers only
  std::int64_t hidden_dim = 0;   ///< transformers only
  std::int64_t vocab_size = 0;   ///< transformers only

  std::int64_t param_bytes() const {
    std::int64_t total = 0;
    for (const auto& m : modules) total += m.param_bytes();
    return total;
  }
  std::int64_t param_count() const { return param_bytes() / 4; }  // f32 zoo

  /// Total forward activation bytes retained for backward on the given
  /// backend (saved outputs + extra saved payloads).
  std::int64_t saved_activation_bytes(Backend backend) const;
};

}  // namespace xmem::fw
