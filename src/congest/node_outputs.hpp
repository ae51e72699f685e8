// One algorithm's per-node outputs as one flat table.
//
// A run of k algorithms on n nodes produces k * n outputs of a few words
// each. Storing them as one vector per node costs an allocation per (alg,
// node) on every run, and again on every copy. NodeOutputs keeps one
// algorithm's outputs as a single word array plus n + 1 offsets: node v's
// output is words[offsets[v], offsets[v + 1]). A node that produced nothing
// (an incomplete node, or a program without outputs) has an empty slice.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace dasched {

/// One node's output: a read-only span of words that compares by value.
/// Converts from a std::vector so `outputs[v] == expected_words` reads as it
/// did when outputs were vectors.
class OutputView {
 public:
  using value_type = std::uint64_t;
  using iterator = const std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  OutputView() = default;
  OutputView(std::span<const std::uint64_t> words) : words_(words) {}
  OutputView(const std::vector<std::uint64_t>& words) : words_(words) {}

  std::size_t size() const { return words_.size(); }
  bool empty() const { return words_.empty(); }
  const std::uint64_t* data() const { return words_.data(); }
  iterator begin() const { return words_.data(); }
  iterator end() const { return words_.data() + words_.size(); }
  std::uint64_t operator[](std::size_t i) const { return words_[i]; }
  std::uint64_t at(std::size_t i) const {
    DASCHED_CHECK_MSG(i < words_.size(), "output word index out of range");
    return words_[i];
  }

  friend bool operator==(OutputView a, OutputView b) {
    return std::ranges::equal(a.words_, b.words_);
  }

 private:
  std::span<const std::uint64_t> words_;
};

/// outputs[v] for v < size(): one algorithm's per-node outputs, flat.
class NodeOutputs {
 public:
  NodeOutputs() = default;

  /// Adopts a finished table: node v's words are
  /// words[offsets[v], offsets[v + 1]). offsets is empty (no nodes) or
  /// starts at 0, is non-decreasing and ends at words.size().
  NodeOutputs(std::vector<std::uint64_t> words, std::vector<std::uint32_t> offsets)
      : words_(std::move(words)), offsets_(std::move(offsets)) {
    DASCHED_CHECK_MSG(offsets_.empty() ? words_.empty()
                                       : offsets_.front() == 0 && offsets_.back() == words_.size(),
                      "node output offsets do not frame the word array");
  }

  /// n, the number of nodes.
  std::size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  OutputView operator[](std::size_t v) const {
    return std::span<const std::uint64_t>(words_.data() + offsets_[v],
                                          offsets_[v + 1] - offsets_[v]);
  }

  /// Builder: sizes for `nodes` more outputs of `num_words` words in total.
  void reserve(std::size_t nodes, std::size_t num_words) {
    offsets_.reserve(offsets_.size() + nodes + (offsets_.empty() ? 1 : 0));
    words_.reserve(words_.size() + num_words);
  }
  /// Builder: appends node size()'s output.
  void push_back(OutputView out) {
    words_.insert(words_.end(), out.begin(), out.end());
    close_node();
  }
  void push_back(std::initializer_list<std::uint64_t> out) {
    words_.insert(words_.end(), out.begin(), out.end());
    close_node();
  }

  class iterator {
   public:
    using value_type = OutputView;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const NodeOutputs* table, std::size_t v) : table_(table), v_(v) {}
    OutputView operator*() const { return (*table_)[v_]; }
    iterator& operator++() {
      ++v_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++v_;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const NodeOutputs* table_ = nullptr;
    std::size_t v_ = 0;
  };
  using const_iterator = iterator;
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

  friend bool operator==(const NodeOutputs&, const NodeOutputs&) = default;

 private:
  void close_node() {
    if (offsets_.empty()) offsets_.push_back(0);
    DASCHED_CHECK_MSG(words_.size() <= ~std::uint32_t{0},
                      "node outputs exceed the 32-bit offset range");
    offsets_.push_back(static_cast<std::uint32_t>(words_.size()));
  }

  std::vector<std::uint64_t> words_;     // perf-ok: one table per algorithm per run
  std::vector<std::uint32_t> offsets_;  // perf-ok: n + 1 entries, filled once
};

}  // namespace dasched
