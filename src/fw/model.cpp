#include "fw/model.h"

namespace xmem::fw {

std::int64_t ModelDescriptor::saved_activation_bytes(Backend backend) const {
  std::int64_t total = 0;
  for (const auto& m : modules) {
    for (const auto& op : m.ops) {
      if (op.output_saved) total += op.output_bytes;
      total += backend == Backend::kCpu ? op.saved_bytes_cpu
                                        : op.saved_bytes_gpu;
    }
  }
  return total;
}

}  // namespace xmem::fw
