// Reference-counted, read-only tensor list: the payload of one message in
// flight (comm::Frame, sim::Message).
//
// Copying a handle shares the tensors instead of copying them, so a ring
// sweep forwards the bundle it is still computing on without materialising
// a second copy, and a duplicated message shares its original. Holders only
// ever see the list as const. take() hands the tensors back out for a
// receiver that must mutate them (a gradient accumulator, a collective's
// result): by move when it holds the last handle, by deep copy otherwise, so
// a payload that was never shared costs no copy end to end.
//
// The list is always created non-const (from the constructor below), which
// is what makes moving out of a sole handle well defined. The sole-handle
// test is a relaxed reference-count read, so take() relies on every other
// holder's reads being ordered before it by other means. Message passing
// provides that: a sender stops reading before it posts, and the mailbox
// lock orders the post before the receiver's take().
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace burst::tensor {

class SharedTensors {
 public:
  /// No payload: reads as an empty list.
  SharedTensors() = default;

  explicit SharedTensors(std::vector<Tensor> tensors)
      : list_(std::make_shared<std::vector<Tensor>>(std::move(tensors))) {}

  const std::vector<Tensor>& operator*() const {
    return list_ ? *list_ : empty_list();
  }
  const std::vector<Tensor>* operator->() const { return &**this; }

  /// Releases this handle and returns its tensors: moved out when no other
  /// handle shares them, else copied (the other holders keep theirs).
  std::vector<Tensor> take() && {
    std::shared_ptr<std::vector<Tensor>> list = std::move(list_);
    if (!list) {
      return {};
    }
    if (list.use_count() == 1) {
      return std::move(*list);
    }
    return *list;
  }

 private:
  static const std::vector<Tensor>& empty_list() {
    static const std::vector<Tensor> kEmpty;
    return kEmpty;
  }

  std::shared_ptr<std::vector<Tensor>> list_;
};

}  // namespace burst::tensor
