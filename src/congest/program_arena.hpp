// Chunked bump storage for one run's node programs.
//
// A run of k algorithms on n nodes builds k * n NodeProgram objects before its
// first big-round and drops them all after its last. The Executor owns one
// ProgramArena and keeps it across runs: make<P>() constructs a program in
// place in the current chunk, and reset() runs the recorded destructors and
// rewinds to the first chunk, so a warm run of the same workload constructs
// every program without touching the allocator. A destructor is recorded only
// for types that are not trivially destructible -- every NodeProgram has a
// virtual destructor, so each program is recorded, and reset() is what
// releases the heap members (vectors, maps) a program owns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace dasched {

class ProgramArena {
 public:
  ProgramArena() = default;
  ~ProgramArena() { reset(); }
  ProgramArena(const ProgramArena&) = delete;
  ProgramArena& operator=(const ProgramArena&) = delete;

  /// Constructs a P from `args` in the arena. The object lives until the
  /// next reset() (or the arena's destruction).
  template <class P, class... Args>
  P& make(Args&&... args) {
    void* mem = allocate(sizeof(P), alignof(P));
    P* obj = ::new (mem) P(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<P>) {
      dtors_.push_back({[](void* p) { static_cast<P*>(p)->~P(); }, obj});
    }
    return *obj;
  }

  /// Takes ownership of a heap object: it is deleted at the next reset().
  /// For factories that still return std::unique_ptr.
  template <class P>
  P& adopt(std::unique_ptr<P> owned) {
    P* obj = owned.release();
    dtors_.push_back({[](void* p) { delete static_cast<P*>(p); }, obj});
    return *obj;
  }

  /// Destroys every object, last constructed first, and rewinds the
  /// storage; the chunks stay allocated for the next run.
  void reset() {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) it->fn(it->obj);
    dtors_.clear();
    chunk_ = 0;
    used_ = 0;
  }

  /// Bytes of chunk storage held (not freed by reset()).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

 private:
  static constexpr std::size_t kMinChunkBytes = std::size_t{64} << 10;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
  };
  struct Dtor {
    void (*fn)(void*);
    void* obj;
  };

  void* allocate(std::size_t size, std::size_t align) {
    while (chunk_ < chunks_.size()) {
      const auto base = reinterpret_cast<std::uintptr_t>(chunks_[chunk_].data.get());
      const std::size_t offset = ((base + used_ + align - 1) & ~(align - 1)) - base;
      if (offset + size <= chunks_[chunk_].size) {
        used_ = offset + size;
        return chunks_[chunk_].data.get() + offset;
      }
      ++chunk_;
      used_ = 0;
    }
    // Out of chunks: grow geometrically, and always fit this object.
    const std::size_t grown = chunks_.empty() ? kMinChunkBytes : 2 * chunks_.back().size;
    const std::size_t bytes = std::max(grown, size + align);
    chunks_.push_back({std::make_unique_for_overwrite<std::byte[]>(bytes), bytes});
    return allocate(size, align);
  }

  std::vector<Chunk> chunks_;  // perf-ok: grows to the workload's high-water mark
  std::size_t chunk_ = 0;  // chunk being filled
  std::size_t used_ = 0;   // bytes used in chunks_[chunk_]
  std::vector<Dtor> dtors_;  // perf-ok: capacity kept across reset()
};

}  // namespace dasched
