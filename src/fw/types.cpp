#include "fw/types.h"

#include <stdexcept>

namespace xmem::fw {

const char* to_string(ModelFamily family) {
  switch (family) {
    case ModelFamily::kCnn: return "CNN";
    case ModelFamily::kTransformer: return "Transformer";
  }
  return "?";
}

const char* to_string(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd: return "SGD";
    case OptimizerKind::kAdam: return "Adam";
    case OptimizerKind::kAdamW: return "AdamW";
    case OptimizerKind::kRmsprop: return "RMSprop";
    case OptimizerKind::kAdagrad: return "Adagrad";
    case OptimizerKind::kAdafactor: return "Adafactor";
  }
  return "?";
}

OptimizerKind optimizer_from_string(const std::string& name) {
  if (name == "SGD" || name == "sgd") return OptimizerKind::kSgd;
  if (name == "Adam" || name == "adam") return OptimizerKind::kAdam;
  if (name == "AdamW" || name == "adamw") return OptimizerKind::kAdamW;
  if (name == "RMSprop" || name == "rmsprop") return OptimizerKind::kRmsprop;
  if (name == "Adagrad" || name == "adagrad") return OptimizerKind::kAdagrad;
  if (name == "Adafactor" || name == "adafactor") return OptimizerKind::kAdafactor;
  throw std::invalid_argument("unknown optimizer: " + name);
}

const char* to_string(ZeroGradPlacement placement) {
  switch (placement) {
    case ZeroGradPlacement::kPos0BeforeBackward: return "POS0";
    case ZeroGradPlacement::kPos1IterStart: return "POS1";
  }
  return "?";
}

ZeroGradPlacement placement_from_string(const std::string& name) {
  if (name == "POS0" || name == "pos0") {
    return ZeroGradPlacement::kPos0BeforeBackward;
  }
  if (name == "POS1" || name == "pos1") {
    return ZeroGradPlacement::kPos1IterStart;
  }
  throw std::invalid_argument("unknown zero_grad placement: " + name);
}

}  // namespace xmem::fw
