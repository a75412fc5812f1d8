#include "engine/row_index.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace rdfref {
namespace engine {

void RowIndex::TooManyRows() {
  std::fprintf(stderr,
               "rdfref: engine::RowIndex: a table of 2^32 - 1 rows or more "
               "does not fit 32-bit row ids\n");
  std::abort();
}

void RowIndex::Reserve(size_t rows) {
  if (rows >= kNoRow) TooManyRows();
  // At most half full: the capacity is the power of two >= 2 * rows.
  const size_t capacity = std::bit_ceil(std::max<size_t>(2 * rows, 16));
  if (capacity > slots_.size()) Rehash(capacity);
}

void RowIndex::Grow() {
  Rehash(slots_.empty() ? 16 : slots_.size() * 2);
}

void RowIndex::Rehash(size_t capacity) {
  std::vector<Slot> old(capacity, Slot{kNoRow, 0});
  old.swap(slots_);
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.row == kNoRow) continue;
    size_t pos = slot.hash & mask_;
    while (slots_[pos].row != kNoRow) pos = (pos + 1) & mask_;
    slots_[pos] = slot;
  }
}

}  // namespace engine
}  // namespace rdfref
