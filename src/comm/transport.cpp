#include "comm/transport.hpp"

#include <utility>

#include "comm/errors.hpp"
#include "tensor/codec.hpp"

namespace burst::comm {

// A layout change bumps the magic, so peers of different builds fail at
// decode instead of misreading fields.
constexpr std::uint32_t kFrameMagic = 0x42465232u;  // "BFR2"

std::vector<std::uint8_t> serialize_frame(const Frame& frame) {
  const std::vector<tensor::Tensor>& tensors = *frame.payload;
  std::size_t total = sizeof(std::uint32_t) * 4 + sizeof(std::uint64_t) * 2;
  for (const auto& t : tensors) {
    total += tensor::encoded_bytes(t);
  }
  tensor::ByteWriter w(total);
  w.u32(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(tensors.size()));
  w.u64(frame.wire_bytes);
  w.u64(frame.seq);
  w.u32(frame.checksum);
  w.u32(static_cast<std::uint32_t>(frame.origin));
  for (const auto& t : tensors) {
    w.tensor(t);
  }
  return w.take();
}

Frame deserialize_frame(const std::uint8_t* data, std::size_t size) {
  tensor::ByteReader<CommError> r(data, size, "frame decode");
  if (r.u32() != kFrameMagic) {
    r.fail("bad magic");
  }
  const std::size_t count = r.count<std::uint32_t>(tensor::kMinTensorBytes);
  Frame frame;
  frame.wire_bytes = r.u64();
  frame.seq = r.u64();
  frame.checksum = r.u32();
  frame.origin = static_cast<std::int32_t>(r.u32());
  std::vector<tensor::Tensor> tensors;
  tensors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tensors.push_back(r.tensor());
  }
  r.finish();
  frame.payload = tensor::SharedTensors(std::move(tensors));
  return frame;
}

bool Transport::send_frame(const Endpoint& dst, int tag, Frame frame,
                           int stream) {
  const std::uint64_t wire = frame.wire_bytes;
  return send_bytes(dst, tag, serialize_frame(frame), wire, stream);
}

Frame Transport::recv_frame(const Endpoint& src, int tag, int stream,
                            double timeout_s) {
  std::vector<std::uint8_t> bytes = recv_bytes(src, tag, stream, timeout_s);
  Frame frame = deserialize_frame(bytes.data(), bytes.size());
  frame.ready_time = now(stream);
  return frame;
}

}  // namespace burst::comm
