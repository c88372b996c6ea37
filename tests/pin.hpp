// Output pins shared by the suites that fix results bitwise
// (test_kernel_pin, test_model_pin, test_dist_model): FNV-1a over raw
// output bits, and a checker that prints the table row to paste on a
// mismatch. Any change to the per-element arithmetic order changes a hash.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/flash_attention.hpp"
#include "tensor/tensor.hpp"

namespace burst {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void tensor(const tensor::Tensor& t) {
    bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  void doubles(const std::vector<double>& v) {
    bytes(v.data(), v.size() * sizeof(double));
  }
  void stats(const kernels::KernelStats& s) {
    bytes(&s.flops, sizeof s.flops);
    bytes(&s.tiles_computed, sizeof s.tiles_computed);
    bytes(&s.tiles_skipped, sizeof s.tiles_skipped);
  }
};

struct Pin {
  std::string name;
  std::uint64_t want;
};

// Checks every pin and, on a mismatch, prints the table row to paste.
inline void expect_pins(const std::vector<Pin>& want,
                        const std::vector<std::uint64_t>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i].want)
        << want[i].name << ": got {\"" << want[i].name << "\", 0x" << std::hex
        << got[i] << "ULL}";
  }
}

}  // namespace burst
