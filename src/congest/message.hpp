// Messages in the CONGEST model.
//
// The CONGEST model allows one O(log n)-bit message per directed edge per
// round. We represent message content as a small fixed-capacity sequence of
// 64-bit words stored *inline* (no heap): conceptually each word is one
// O(log n)-bit field, and the execution engine enforces a word budget per
// message. Scheduling headers (algorithm id, virtual round,
// clustering layer) are accounted separately -- the paper explicitly allows
// "adding a small amount of information to the header" of black-box messages.
//
// Why inline storage matters: the executor moves every message through a
// staging buffer and a delivery arena (congest/executor.cpp). With a
// heap-backed payload each of those hops is an allocator round-trip; with an
// inline payload a message is a trivially-copyable value and the whole
// send/stage/deliver path is allocation-free (docs/PERFORMANCE.md, "Memory
// layout & allocation budget").
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <type_traits>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace dasched {

/// The CONGEST word budget: content words per message, and the inline
/// capacity of a payload. Each word is one O(log n)-bit field (an id, a hop
/// count, a weight); the largest message in this repo is an MST edge record
/// {weight, u, v, fragment(u), fragment(v)} -- five fields, i.e. still a
/// single O(log n)-bit CONGEST message. There is deliberately no heap spill
/// path on the message hot path.
inline constexpr std::uint32_t kMaxPayloadWords = 5;

/// Fixed-capacity inline message content: up to kMaxPayloadWords 64-bit words
/// plus a length, no heap. Mirrors the slice of the std::vector interface the
/// algorithms use ({...} construction, at/operator[], iteration, size), so a
/// NodeProgram reads exactly like it did when Payload was a vector -- but the
/// type is trivially copyable, which is what lets the executor treat staged
/// and delivered messages as raw relocatable bytes.
class InlinePayload {
 public:
  using value_type = std::uint64_t;

  InlinePayload() = default;

  InlinePayload(std::initializer_list<std::uint64_t> words) {
    DASCHED_CHECK_MSG(words.size() <= kMaxPayloadWords,
                      "message exceeds the CONGEST word budget (inline payload capacity)");
    len_ = static_cast<std::uint32_t>(words.size());
    std::uint32_t i = 0;
    for (const auto w : words) words_[i++] = w;
  }

  /// Fill constructor (vector-compatible): `count` copies of `value`.
  InlinePayload(std::size_t count, std::uint64_t value) {
    DASCHED_CHECK_MSG(count <= kMaxPayloadWords,
                      "message exceeds the CONGEST word budget (inline payload capacity)");
    len_ = static_cast<std::uint32_t>(count);
    for (std::uint32_t i = 0; i < len_; ++i) words_[i] = value;
  }

  std::uint32_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  static constexpr std::uint32_t capacity() { return kMaxPayloadWords; }

  /// Bounds-checked access (vector::at without the exception machinery: a
  /// contract failure aborts, matching the repo-wide DASCHED_CHECK style).
  std::uint64_t at(std::uint32_t i) const {
    DASCHED_CHECK_LT(i, len_, "payload index out of range");
    return words_[i];
  }

  std::uint64_t operator[](std::uint32_t i) const {
    DASCHED_DCHECK(i < len_);
    return words_[i];
  }
  std::uint64_t& operator[](std::uint32_t i) {
    DASCHED_DCHECK(i < len_);
    return words_[i];
  }

  std::uint64_t front() const { return at(0); }
  std::uint64_t back() const { return at(len_ - 1); }

  void push_back(std::uint64_t w) {
    DASCHED_CHECK_MSG(len_ < kMaxPayloadWords,
                      "message exceeds the CONGEST word budget (inline payload capacity)");
    words_[len_++] = w;
  }
  void clear() { len_ = 0; }

  const std::uint64_t* data() const { return words_; }
  const std::uint64_t* begin() const { return words_; }
  const std::uint64_t* end() const { return words_ + len_; }

  friend bool operator==(const InlinePayload& a, const InlinePayload& b) {
    if (a.len_ != b.len_) return false;
    for (std::uint32_t i = 0; i < a.len_; ++i) {
      if (a.words_[i] != b.words_[i]) return false;
    }
    return true;
  }

 private:
  std::uint32_t len_ = 0;
  // Zero-initialized so the executor's width-specialized lane copies may move
  // a fixed W words per message without ever reading indeterminate bytes.
  std::uint64_t words_[kMaxPayloadWords] = {};
};

using Payload = InlinePayload;

// The executor's staging buffers and delivery arenas copy payload words as
// raw relocatable bytes; see docs/PERFORMANCE.md.
static_assert(std::is_trivially_copyable_v<InlinePayload>);

// ---------------------------------------------------------------------------
// Compact lane layout (the width-dispatch layer).
//
// The executor never moves owning message records through staging or the CSR
// inbox. Messages travel as two parallel lanes sized once per run to the
// *run width* W (the largest payload any admitted algorithm may send):
//
//   header lane : one u32 per message -- sender id and payload length packed
//                 into 32 bits (see pack_msg_header below)
//   payload lane: W u64 words per message, densely strided (message i's words
//                 live at [i*W, i*W + W))
//
// so a delivered message costs 4 + 8*W bytes (arena_message_bytes(W)) rather
// than a fixed worst-case record sized to the word budget.
// NodePrograms observe the lanes through the view types below.

/// Bits of the packed header reserved for the payload length, sized to the
/// word budget.
inline constexpr std::uint32_t kMsgHeaderLenBits =
    std::uint32_t{std::bit_width(kMaxPayloadWords)};
inline constexpr std::uint32_t kMsgHeaderFromBits = 32 - kMsgHeaderLenBits;

/// Largest node count addressable by a packed header's sender field. The
/// executor checks n against this at the start of every run; beyond it the
/// header would need to grow to 64 bits (a deliberate future fork, not a
/// silent truncation).
inline constexpr std::uint64_t kMaxPackedHeaderNodes = std::uint64_t{1}
                                                       << kMsgHeaderFromBits;
static_assert(kMsgHeaderLenBits >= 1 && kMsgHeaderLenBits < 16);

inline constexpr std::uint32_t pack_msg_header(NodeId from, std::uint32_t len) {
  return (len << kMsgHeaderFromBits) | from;
}
inline constexpr NodeId msg_header_from(std::uint32_t header) {
  return header & (static_cast<std::uint32_t>(kMaxPackedHeaderNodes - 1));
}
inline constexpr std::uint32_t msg_header_len(std::uint32_t header) {
  return header >> kMsgHeaderFromBits;
}

/// Bytes one delivered message occupies in the compact CSR inbox arena at a
/// given run width: a packed u32 header plus `width` u64 payload words.
inline constexpr std::size_t arena_message_bytes(std::uint32_t width) {
  return sizeof(std::uint32_t) + std::size_t{width} * sizeof(std::uint64_t);
}

/// Read-only view of one message's payload words inside a lane. Mirrors the
/// const slice of InlinePayload's interface so NodeProgram code reads
/// identically against either; converts implicitly to InlinePayload for the
/// rare consumer that stores a copy.
class PayloadView {
 public:
  using value_type = std::uint64_t;

  PayloadView() = default;
  PayloadView(const std::uint64_t* words, std::uint32_t len) : words_(words), len_(len) {}

  std::uint32_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  std::uint64_t at(std::uint32_t i) const {
    DASCHED_CHECK_LT(i, len_, "payload index out of range");
    return words_[i];
  }
  std::uint64_t operator[](std::uint32_t i) const {
    DASCHED_DCHECK(i < len_);
    return words_[i];
  }

  std::uint64_t front() const { return at(0); }
  std::uint64_t back() const { return at(len_ - 1); }

  const std::uint64_t* data() const { return words_; }
  const std::uint64_t* begin() const { return words_; }
  const std::uint64_t* end() const { return words_ + len_; }

  operator InlinePayload() const {  // NOLINT(google-explicit-constructor)
    InlinePayload p;
    for (std::uint32_t i = 0; i < len_; ++i) p.push_back(words_[i]);
    return p;
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::uint32_t len_ = 0;
};

/// A delivered message as seen by a NodeProgram: sender plus payload view
/// (`m.from`, `m.payload.at(0)`, ...), borrowing the arena lanes instead of
/// owning 8*kMaxPayloadWords payload bytes.
struct MsgView {
  NodeId from;
  PayloadView payload;
};

/// One node's inbox for one virtual round: `count` consecutive messages of a
/// single (algorithm, round) bucket inside the compact lanes. Iteration
/// yields MsgView values: `for (const auto& m : ctx.inbox())`.
class InboxView {
 public:
  InboxView() = default;
  InboxView(const std::uint32_t* headers, const std::uint64_t* payload_words,
            std::uint32_t width, std::uint32_t count)
      : headers_(headers), payload_words_(payload_words), width_(width), count_(count) {}

  std::uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  MsgView operator[](std::uint32_t i) const {
    DASCHED_DCHECK(i < count_);
    const std::uint32_t h = headers_[i];
    return {msg_header_from(h),
            PayloadView(payload_words_ + std::size_t{i} * width_, msg_header_len(h))};
  }

  MsgView front() const {
    DASCHED_CHECK_MSG(count_ > 0, "front() on an empty inbox");
    return (*this)[0];
  }
  MsgView back() const {
    DASCHED_CHECK_MSG(count_ > 0, "back() on an empty inbox");
    return (*this)[count_ - 1];
  }

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MsgView;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const InboxView* view, std::uint32_t i) : view_(view), i_(i) {}

    MsgView operator*() const { return (*view_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++i_;
      return tmp;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) { return a.i_ == b.i_; }

   private:
    const InboxView* view_ = nullptr;
    std::uint32_t i_ = 0;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, count_); }

 private:
  const std::uint32_t* headers_ = nullptr;
  const std::uint64_t* payload_words_ = nullptr;
  std::uint32_t width_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace dasched
