#include "tensor/codec.hpp"

namespace burst::tensor {

void ByteWriter::raw(const void* p, std::size_t n) {
  if (n == 0) {
    return;  // p may be null (an empty tensor's data)
  }
  const std::size_t off = buf_.size();
  buf_.resize(off + n);
  std::memcpy(buf_.data() + off, p, n);
}

}  // namespace burst::tensor
