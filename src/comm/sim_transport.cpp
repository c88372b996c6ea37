#include "comm/sim_transport.hpp"

#include <cstring>

namespace burst::comm {

// A byte frame rides the mailbox inside one tensor: element 0 holds the byte
// length, the rest the payload packed four bytes per float. The packing is a
// transport detail — the wire charge stays `wire_bytes`, and the fault
// layer's in-flight corruption hits the packed payload just like any other
// tensor, which the protocol layer's checksum then catches.
bool SimTransport::send_bytes(const Endpoint& dst, int tag,
                              std::vector<std::uint8_t> bytes,
                              std::uint64_t wire_bytes, int stream) {
  const std::int64_t n = static_cast<std::int64_t>(bytes.size());
  tensor::Tensor packed(1 + (n + 3) / 4);  // zeroed: pads the last word
  packed[0] = static_cast<float>(n);
  if (n > 0) {
    std::memcpy(packed.data() + 1, bytes.data(),
                static_cast<std::size_t>(n));
  }
  std::vector<tensor::Tensor> tensors;
  tensors.push_back(std::move(packed));
  sim::Message msg;
  msg.payload = tensor::SharedTensors(std::move(tensors));
  msg.bytes = wire_bytes;
  return ctx_.try_send(dst.rank, tag, std::move(msg), stream);
}

std::vector<std::uint8_t> SimTransport::recv_bytes(const Endpoint& src,
                                                   int tag, int stream,
                                                   double timeout_s) {
  (void)timeout_s;
  sim::Message msg = ctx_.recv(src.rank, tag, stream);
  const tensor::Tensor& packed = msg.payload->at(0);
  const auto n = static_cast<std::size_t>(packed[0]);
  std::vector<std::uint8_t> bytes(n);
  if (n > 0) {
    std::memcpy(bytes.data(), packed.data() + 1, n);
  }
  return bytes;
}

}  // namespace burst::comm
