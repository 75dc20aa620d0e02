// Transformer zoo builders (the 10 RQ1-RQ4 models + the 3 RQ5 models of
// Table 2). Hyper-parameters follow the published HuggingFace configs;
// parameter counts land within a few percent of the advertised sizes
// (verified by tests/models_test.cpp).
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

constexpr std::int64_t kSeqLen = 512;

struct TransformerCfg {
  const char* name;
  int year = 2020;
  std::int64_t layers = 12;
  std::int64_t hidden = 768;
  std::int64_t heads = 12;
  std::int64_t kv_heads = 0;   ///< 0 => MHA (kv_heads == heads)
  std::int64_t head_dim = 0;   ///< 0 => hidden / heads
  std::int64_t ffn = 3072;
  std::int64_t vocab = 50257;
  bool learned_pos = true;   ///< GPT-2 style wpe table
  bool tied_lm_head = true;  ///< lm_head shares the embedding matrix
  bool gated_mlp = false;    ///< SwiGLU (gate+up+down) MLP
  bool rms_norm = false;     ///< RMSNorm (1 param) vs LayerNorm (2 params)
  bool attn_bias = true;     ///< biases on attention/MLP projections
  std::int64_t encoder_layers = 0;  ///< >0 => encoder-decoder (T5)
};

/// Paper Table 2: the year column drives the attention implementation —
/// 2022+ models run fused flash/SDPA attention; older ones run the eager
/// (materialized-probabilities) pipeline.
bool uses_flash(const TransformerCfg& cfg) { return cfg.year >= 2022; }

class TransformerNet {
 public:
  TransformerNet(const TransformerCfg& cfg, int batch)
      : cfg_(cfg), batch_(batch), rows_(batch * kSeqLen) {
    model_.name = cfg.name;
    model_.family = ModelFamily::kTransformer;
    model_.year = cfg.year;
    model_.batch_size = batch;
    model_.seq_len = kSeqLen;
    model_.hidden_dim = cfg.hidden;
    model_.vocab_size = cfg.vocab;
    model_.input_bytes = rows_ * 8;   // i64 token ids
    model_.target_bytes = rows_ * 8;  // i64 labels
  }

  void embedding() {
    ModuleSpec m;
    m.name = next_name("Embedding");
    m.kind = "Embedding";
    m.params.push_back(TensorDesc({cfg_.vocab, cfg_.hidden}));
    if (cfg_.learned_pos) {
      m.params.push_back(TensorDesc({1024, cfg_.hidden}));  // wpe
    }
    m.ops.push_back(embedding_op(batch_, kSeqLen, cfg_.hidden));
    model_.modules.push_back(std::move(m));
  }

  void norm(const char* label) {
    ModuleSpec m;
    m.name = next_name(label);
    m.kind = cfg_.rms_norm ? "RMSNorm" : "LayerNorm";
    m.params.push_back(TensorDesc({cfg_.hidden}));
    if (!cfg_.rms_norm) m.params.push_back(TensorDesc({cfg_.hidden}));
    m.ops.push_back(layer_norm_op(rows_, cfg_.hidden));
    model_.modules.push_back(std::move(m));
  }

  void attention(const char* label) {
    const std::int64_t heads = cfg_.heads;
    const std::int64_t kv_heads = cfg_.kv_heads > 0 ? cfg_.kv_heads : heads;
    const std::int64_t head_dim =
        cfg_.head_dim > 0 ? cfg_.head_dim : cfg_.hidden / heads;
    const std::int64_t q_dim = heads * head_dim;
    const std::int64_t kv_dim = kv_heads * head_dim;

    ModuleSpec m;
    m.name = next_name(label);
    m.kind = "Attention";
    m.params.push_back(TensorDesc({q_dim + 2 * kv_dim, cfg_.hidden}));  // qkv
    if (cfg_.attn_bias) m.params.push_back(TensorDesc({q_dim + 2 * kv_dim}));
    m.params.push_back(TensorDesc({cfg_.hidden, q_dim}));  // out proj
    if (cfg_.attn_bias) m.params.push_back(TensorDesc({cfg_.hidden}));

    m.ops.push_back(linear_op(rows_, cfg_.hidden, q_dim + 2 * kv_dim));
    if (uses_flash(cfg_)) {
      m.ops.push_back(
          sdpa_flash_op(batch_, heads, kSeqLen, head_dim, kv_heads));
    } else {
      AttentionOps attn =
          eager_attention_ops(batch_, heads, kSeqLen, head_dim);
      m.ops.push_back(std::move(attn.scores));
      m.ops.push_back(std::move(attn.softmax));
      m.ops.push_back(std::move(attn.context));
    }
    m.ops.push_back(linear_op(rows_, q_dim, cfg_.hidden));
    model_.modules.push_back(std::move(m));
  }

  void mlp() {
    ModuleSpec m;
    m.name = next_name("MLP");
    m.kind = "MLP";
    if (cfg_.gated_mlp) {
      m.params.push_back(TensorDesc({cfg_.ffn, cfg_.hidden}));  // gate
      m.params.push_back(TensorDesc({cfg_.ffn, cfg_.hidden}));  // up
      m.params.push_back(TensorDesc({cfg_.hidden, cfg_.ffn}));  // down
      // Fused gate+up projection, SiLU-gate, down projection.
      m.ops.push_back(linear_op(rows_, cfg_.hidden, 2 * cfg_.ffn));
      m.ops.push_back(activation_op(rows_, cfg_.ffn, "aten::silu"));
      m.ops.push_back(linear_op(rows_, cfg_.ffn, cfg_.hidden));
    } else {
      m.params.push_back(TensorDesc({cfg_.ffn, cfg_.hidden}));
      if (cfg_.attn_bias) m.params.push_back(TensorDesc({cfg_.ffn}));
      m.params.push_back(TensorDesc({cfg_.hidden, cfg_.ffn}));
      if (cfg_.attn_bias) m.params.push_back(TensorDesc({cfg_.hidden}));
      m.ops.push_back(linear_op(rows_, cfg_.hidden, cfg_.ffn));
      m.ops.push_back(activation_op(rows_, cfg_.ffn, "aten::gelu"));
      m.ops.push_back(linear_op(rows_, cfg_.ffn, cfg_.hidden));
    }
    model_.modules.push_back(std::move(m));
  }

  void block(const char* attn_label = "SelfAttention") {
    norm("InputNorm");
    attention(attn_label);
    norm("PostAttnNorm");
    mlp();
  }

  void lm_head_and_loss() {
    norm("FinalNorm");
    {
      ModuleSpec head;
      head.name = next_name("LMHead");
      head.kind = "LMHead";
      if (!cfg_.tied_lm_head) {
        head.params.push_back(TensorDesc({cfg_.vocab, cfg_.hidden}));
      }
      // Logits die as soon as log_softmax has consumed them.
      OpSpec logits = linear_op(rows_, cfg_.hidden, cfg_.vocab,
                                /*save_output=*/false);
      if (cfg_.tied_lm_head) {
        // Tied weights: the matmul still back-propagates into the embedding.
        logits.allocates_param_grads = false;
      }
      head.ops.push_back(std::move(logits));
      model_.modules.push_back(std::move(head));
    }
    {
      ModuleSpec loss;
      loss.name = next_name("CrossEntropyLoss");
      loss.kind = "CrossEntropyLoss";
      loss.ops.push_back(log_softmax_op(rows_, cfg_.vocab));
      loss.ops.push_back(nll_loss_op(rows_, cfg_.vocab));
      model_.modules.push_back(std::move(loss));
    }
  }

  ModelDescriptor take() { return std::move(model_); }

 private:
  std::string next_name(const char* kind) {
    return std::string(kind) + "_" + std::to_string(index_++);
  }

  TransformerCfg cfg_;
  std::int64_t batch_;
  std::int64_t rows_;
  ModelDescriptor model_;
  int index_ = 0;
};

ModelDescriptor build_decoder_only(const TransformerCfg& cfg, int batch) {
  TransformerNet net(cfg, batch);
  net.embedding();
  for (std::int64_t layer = 0; layer < cfg.layers; ++layer) net.block();
  net.lm_head_and_loss();
  return net.take();
}

ModelDescriptor build_encoder_decoder(const TransformerCfg& cfg, int batch) {
  TransformerNet net(cfg, batch);
  net.embedding();
  for (std::int64_t layer = 0; layer < cfg.encoder_layers; ++layer) {
    net.block("EncoderSelfAttention");
  }
  for (std::int64_t layer = 0; layer < cfg.layers; ++layer) {
    net.norm("InputNorm");
    net.attention("DecoderSelfAttention");
    net.norm("CrossNorm");
    net.attention("CrossAttention");
    net.norm("PostAttnNorm");
    net.mlp();
  }
  net.lm_head_and_loss();
  return net.take();
}

TransformerCfg config_for(const std::string& name) {
  TransformerCfg cfg;
  if (name == "distilgpt2") {
    cfg = {.name = "distilgpt2", .year = 2019, .layers = 6};
    return cfg;
  }
  if (name == "gpt2") {
    cfg = {.name = "gpt2", .year = 2019, .layers = 12};
    return cfg;
  }
  if (name == "gpt-neo-125M") {
    cfg = {.name = "gpt-neo-125M", .year = 2022, .layers = 12};
    return cfg;
  }
  if (name == "opt-125m") {
    cfg = {.name = "opt-125m", .year = 2022, .layers = 12, .vocab = 50272};
    return cfg;
  }
  if (name == "opt-350m") {
    cfg = {.name = "opt-350m",
           .year = 2022,
           .layers = 24,
           .hidden = 1024,
           .heads = 16,
           .ffn = 4096,
           .vocab = 50272};
    return cfg;
  }
  if (name == "Cerebras-GPT-111M") {
    cfg = {.name = "Cerebras-GPT-111M", .year = 2023, .layers = 10};
    return cfg;
  }
  if (name == "pythia-1b") {
    cfg = {.name = "pythia-1b",
           .year = 2023,
           .layers = 16,
           .hidden = 2048,
           .heads = 8,
           .ffn = 8192,
           .vocab = 50304,
           .learned_pos = false,  // rotary
           .tied_lm_head = false};
    return cfg;
  }
  if (name == "Qwen3-0.6B") {
    cfg = {.name = "Qwen3-0.6B",
           .year = 2025,
           .layers = 28,
           .hidden = 1024,
           .heads = 16,
           .kv_heads = 8,
           .head_dim = 128,
           .ffn = 3072,
           .vocab = 151936,
           .learned_pos = false,
           .tied_lm_head = true,
           .gated_mlp = true,
           .rms_norm = true,
           .attn_bias = false};
    return cfg;
  }
  if (name == "T5-small") {
    cfg = {.name = "T5-small",
           .year = 2020,
           .layers = 6,
           .hidden = 512,
           .heads = 8,
           .ffn = 2048,
           .vocab = 32128,
           .learned_pos = false,
           .attn_bias = false,
           .encoder_layers = 6};
    return cfg;
  }
  if (name == "t5-base") {
    cfg = {.name = "t5-base",
           .year = 2020,
           .layers = 12,
           .hidden = 768,
           .heads = 12,
           .ffn = 3072,
           .vocab = 32128,
           .learned_pos = false,
           .attn_bias = false,
           .encoder_layers = 12};
    return cfg;
  }
  if (name == "Llama-3.2-3B-Instruct") {
    cfg = {.name = "Llama-3.2-3B-Instruct",
           .year = 2024,
           .layers = 28,
           .hidden = 3072,
           .heads = 24,
           .kv_heads = 8,
           .head_dim = 128,
           .ffn = 8192,
           .vocab = 128256,
           .learned_pos = false,
           .tied_lm_head = true,
           .gated_mlp = true,
           .rms_norm = true,
           .attn_bias = false};
    return cfg;
  }
  if (name == "DeepSeek-R1-Distill-Qwen-1.5B") {
    cfg = {.name = "DeepSeek-R1-Distill-Qwen-1.5B",
           .year = 2025,
           .layers = 28,
           .hidden = 1536,
           .heads = 12,
           .kv_heads = 2,
           .head_dim = 128,
           .ffn = 8960,
           .vocab = 151936,
           .learned_pos = false,
           .tied_lm_head = true,
           .gated_mlp = true,
           .rms_norm = true,
           .attn_bias = false};
    return cfg;
  }
  if (name == "Qwen3-4B") {
    cfg = {.name = "Qwen3-4B",
           .year = 2025,
           .layers = 36,
           .hidden = 2560,
           .heads = 32,
           .kv_heads = 8,
           .head_dim = 128,
           .ffn = 9728,
           .vocab = 151936,
           .learned_pos = false,
           .tied_lm_head = true,
           .gated_mlp = true,
           .rms_norm = true,
           .attn_bias = false};
    return cfg;
  }
  throw std::invalid_argument("unknown Transformer model: " + name);
}

}  // namespace

bool is_transformer_name(const std::string& name) {
  static const std::vector<std::string> known = [] {
    std::vector<std::string> names = transformer_model_names();
    for (std::string& rq5 : rq5_model_names()) names.push_back(std::move(rq5));
    return names;
  }();
  return std::find(known.begin(), known.end(), name) != known.end();
}

ModelDescriptor build_transformer(const std::string& name, int batch_size) {
  const TransformerCfg cfg = config_for(name);
  if (cfg.encoder_layers > 0) return build_encoder_decoder(cfg, batch_size);
  return build_decoder_only(cfg, batch_size);
}

}  // namespace xmem::models::detail
