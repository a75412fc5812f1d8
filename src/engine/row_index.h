#ifndef RDFREF_ENGINE_ROW_INDEX_H_
#define RDFREF_ENGINE_ROW_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/annotations.h"
#include "rdf/term.h"

namespace rdfref {
namespace engine {

/// \brief Flat hash index over the rows of an arity-stride arena: the one
/// hashing kernel under Table::Dedup, HashJoin's build side and the Datalog
/// relations (DESIGN.md §16).
///
/// The index never owns rows. A row is a 32-bit row id into an arena the
/// caller owns (`stride` TermIds per row, row-major); its key is the
/// `width` ids starting at `offset` within the row. Every call takes the
/// arena's current base pointer, so the arena may reallocate between calls.
///
/// Layout: a power-of-two array of 8-byte slots, each holding a row id and
/// that row's 32-bit key hash (kNoRow marks an empty slot), probed
/// linearly and kept at most half full. A probe compares stored hashes
/// first and reads the arena only on a hash match; growth rehashes from
/// the stored hashes without touching the arena.
///
/// Two uses, one per index:
///  - a **set** (FindOrInsert): the first row inserted with a key stays
///    its representative, so a dedup pass keeps first occurrences;
///  - **chains** (Append/Find): every row is appended to its key's chain,
///    and a chain replays its rows in append (build) order. Chains are
///    circular `next` links over row ids; the slot holds the chain's last
///    row, whose link points back to the first. Each chain knows its
///    length, so a caller can pick the shortest of several without
///    walking them.
///
/// Row ids are 32-bit: indexing row 2^32 − 1 or beyond (the empty-slot
/// sentinel) aborts with a message instead of wrapping.
///
/// Not thread-safe for writes; const lookups may run concurrently.
class RowIndex {
 public:
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  /// \brief Build-order view of one key's chain.
  class Chain {
   public:
    class iterator {
     public:
      uint32_t operator*() const { return row_; }
      iterator& operator++() {
        row_ = next_[row_];
        --left_;
        return *this;
      }
      bool operator!=(const iterator& other) const {
        return left_ != other.left_;
      }

     private:
      friend class Chain;
      iterator(const uint32_t* next, uint32_t row, uint32_t left)
          : next_(next), row_(row), left_(left) {}
      const uint32_t* next_;
      uint32_t row_;
      uint32_t left_;
    };

    Chain() = default;
    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    iterator begin() const {
      return {next_, size_ == 0 ? kNoRow : next_[last_], size_};
    }
    iterator end() const { return {next_, kNoRow, 0}; }

   private:
    friend class RowIndex;
    Chain(const uint32_t* next, uint32_t last, uint32_t size)
        : next_(next), last_(last), size_(size) {}
    const uint32_t* next_ = nullptr;
    uint32_t last_ = kNoRow;
    uint32_t size_ = 0;
  };

  RowIndex() = default;

  /// \brief Keys are `width` ids at `offset` within rows of `stride` ids
  /// (offset + width <= stride; width may be 0, making every row equal).
  RowIndex(size_t stride, size_t offset, size_t width)
      : stride_(stride), offset_(offset), width_(width) {}

  /// \brief Presizes the slots for up to `rows` distinct keys, so that
  /// indexing that many rows never regrows them.
  void Reserve(size_t rows);

  /// \brief Set use: returns the representative row of row `row`'s key,
  /// inserting `row` as that representative when the key is new (then the
  /// result is `row` itself).
  uint32_t FindOrInsert(const rdf::TermId* arena, size_t row) {
    const uint32_t r = CheckedRow(row);
    const rdf::TermId* key = arena + row * stride_ + offset_;
    const uint32_t hash = Hash(key);
    if (slots_.empty()) Grow();
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      Slot& slot = slots_[pos];
      if (slot.row == kNoRow) {
        Occupy(pos, r, hash);
        return r;
      }
      if (slot.hash == hash && KeyEquals(arena, slot.row, key)) {
        return slot.row;
      }
    }
  }

  /// \brief Chain use: appends row `row` to its key's chain. Rows are
  /// usually appended in increasing id order; a chain replays them in
  /// the order they were appended.
  void Append(const rdf::TermId* arena, size_t row) {
    const uint32_t r = CheckedRow(row);
    if (next_.size() <= row) {
      next_.resize(row + 1, kNoRow);
      length_.resize(row + 1, 0);
    }
    const rdf::TermId* key = arena + row * stride_ + offset_;
    const uint32_t hash = Hash(key);
    if (slots_.empty()) Grow();
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      Slot& slot = slots_[pos];
      if (slot.row == kNoRow) {
        next_[r] = r;
        length_[r] = 1;
        Occupy(pos, r, hash);
        return;
      }
      if (slot.hash == hash && KeyEquals(arena, slot.row, key)) {
        const uint32_t last = slot.row;
        next_[r] = next_[last];  // the new last row links back to the first
        next_[last] = r;
        length_[r] = length_[last] + 1;
        slot.row = r;
        return;
      }
    }
  }

  /// \brief Chain use: the rows whose key equals the `width` ids at `key`
  /// (which need not lie in the arena), in append order.
  Chain Find(const rdf::TermId* arena, const rdf::TermId* key) const
      RDFREF_LIFETIME_BOUND {
    if (keys_ == 0) return {};
    const uint32_t hash = Hash(key);
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const Slot& slot = slots_[pos];
      if (slot.row == kNoRow) return {};
      if (slot.hash == hash && KeyEquals(arena, slot.row, key)) {
        return {next_.data(), slot.row, length_[slot.row]};
      }
    }
  }

 private:
  struct Slot {
    uint32_t row;
    uint32_t hash;
  };

  // One multiply per id, then a splitmix-style finalizer: row keys are
  // small dense TermIds, and linear probing needs their low bits mixed.
  uint32_t Hash(const rdf::TermId* key) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t k = 0; k < width_; ++k) {
      h = (h ^ key[k]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<uint32_t>(h);
  }

  bool KeyEquals(const rdf::TermId* arena, uint32_t row,
                 const rdf::TermId* key) const {
    const rdf::TermId* stored = arena + size_t{row} * stride_ + offset_;
    return width_ == 0 ||
           std::memcmp(stored, key, width_ * sizeof(rdf::TermId)) == 0;
  }

  void Occupy(size_t pos, uint32_t row, uint32_t hash) {
    slots_[pos] = Slot{row, hash};
    if (++keys_ * 2 > slots_.size()) Grow();
  }

  static uint32_t CheckedRow(size_t row) {
    if (row >= kNoRow) TooManyRows();
    return static_cast<uint32_t>(row);
  }

  [[noreturn]] static void TooManyRows();
  void Grow();
  void Rehash(size_t capacity);

  size_t stride_ = 0;
  size_t offset_ = 0;
  size_t width_ = 0;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t keys_ = 0;
  // Chain use only, indexed by row id: the circular link to the next row
  // of the same key, and (meaningful at each chain's last row) its length.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> length_;
};

}  // namespace engine
}  // namespace rdfref

#endif  // RDFREF_ENGINE_ROW_INDEX_H_
