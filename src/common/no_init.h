#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace tamp {

/// A std::allocator whose value-initializing construct() leaves the
/// element as allocated: `resize(n)` on a NoInitVector takes the memory
/// without writing it. A parallel pass that then fills the buffer also
/// faults its pages in, on every pool thread at once, instead of after one
/// serial zeroing pass; on the fleet-sized per-batch buffers (rows, index
/// entries, grid cells) that zeroing cost as much as filling them.
///
/// Only for trivially copyable element types, and only where every element
/// is written before it is read.
template <typename T>
class NoInitAllocator : public std::allocator<T> {
 public:
  static_assert(std::is_trivially_copyable_v<T>);
  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };

  NoInitAllocator() = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) noexcept {}  // NOLINT

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using NoInitVector = std::vector<T, NoInitAllocator<T>>;

}  // namespace tamp
