#pragma once
// Device-resident array of doubles. It represents the simulated
// accelerator's separate arena: host code reaches it only through explicit
// upload/download calls, kernels through device_view().

#include <cstddef>
#include <span>

#include "rshc/common/aligned.hpp"

namespace rshc::device {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t n) : storage_(n, 0.0) {}

  [[nodiscard]] std::size_t size() const { return storage_.size(); }

  /// View usable *on the device only* (inside launched kernels).
  [[nodiscard]] std::span<double> device_view() { return storage_; }
  [[nodiscard]] std::span<const double> device_view() const {
    return storage_;
  }

 private:
  rshc::aligned_vector<double> storage_;
};

}  // namespace rshc::device
