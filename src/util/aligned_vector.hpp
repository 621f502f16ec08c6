#pragma once
/// \file aligned_vector.hpp
/// \brief Cache-line/“memory-row” aligned storage for kernel buffers.
///
/// Kernel arrays are aligned to 128 bytes so that element 0 begins a
/// cacheline (host backend) and an address group (simulator backend):
/// the coalescing analysis assumes array base addresses are
/// group-aligned exactly like `cudaMalloc` guarantees on real GPUs.
///
/// The SIMD kernel tier additionally relies on a 64-byte floor: a
/// full-width AVX-512 vector load of element 0 must not split a
/// cacheline. The kernels themselves only use unaligned load/store
/// instructions (correctness never depends on alignment), but the
/// floor keeps the aligned fast path on every buffer that flows
/// through `aligned_vector` or the `BufferPool` (whose
/// `kBufferAlignment` shares the same 128-byte boundary).

#include <cstddef>
#include <memory>
#include <vector>

namespace hmm::util {

/// Minimal over-aligned allocator.
template <class T, std::size_t Align = 128>
struct AlignedAllocator {
  static_assert(Align >= 64 && (Align & (Align - 1)) == 0,
                "kernel buffers guarantee at least 64-byte (vector-width) alignment");
  using value_type = T;
  static constexpr std::align_val_t alignment{Align};

  /// Explicit rebind: the automatic one does not apply because `Align`
  /// is a non-type template parameter.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), alignment));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, alignment); }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// 128-byte-aligned vector; the standard buffer type for kernel data.
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// An aligned vector whose `resize` leaves the new elements unwritten,
/// for buffers a parallel pass fills in full: each page is first touched
/// by the worker that writes it, not zeroed serially beforehand.
template <class T>
struct UninitAllocator : AlignedAllocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <class U>
  void construct(U* at) noexcept {
    ::new (static_cast<void*>(at)) U;
  }
};
template <class T>
using uninit_vector = std::vector<T, UninitAllocator<T>>;

}  // namespace hmm::util
