// LiveLedger: AllocatorBase's address-ordered record of live blocks, the structure every
// Malloc and Free of every allocator kind updates.
//
// Live blocks are kept as {addr, size} entries in address order, split across flat chunks of
// at most kChunkEntries entries, plus a flat vector holding each chunk's first address. A lookup
// is two binary searches over contiguous memory (the chunk firsts, then one chunk), an insert or
// erase moves at most one chunk's tail (1 KiB), and a chunk splits in half when a full chunk
// takes another entry and is removed when it empties. A node-based tree pays a cache miss per
// level for the same answers.
//
// Insert refuses a block that overlaps a recorded one and reports which one — the stomping
// detector's neighbour check, across chunk boundaries too — and leaves the ledger unchanged.

#ifndef SRC_ALLOCATORS_LIVE_LEDGER_H_
#define SRC_ALLOCATORS_LIVE_LEDGER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace stalloc {

class LiveLedger {
 public:
  struct Entry {
    uint64_t addr;
    uint64_t size;
  };
  static constexpr size_t kChunkEntries = 64;

  // Records the block [addr, addr + size), size > 0, unless it overlaps a recorded block.
  // Returns nullptr when inserted; otherwise the overlapped block — the successor (the first
  // block at or above `addr`) is checked before the predecessor — with the ledger unchanged.
  // The pointer is valid until the next mutation.
  const Entry* Insert(uint64_t addr, uint64_t size) {
    if (chunks_.empty()) {
      chunks_.emplace_back().reserve(kChunkEntries);
      firsts_.push_back(addr);
    }
    size_t c = ChunkOf(addr);
    size_t i = LowerBoundIn(chunks_[c], addr);
    // The successor may be the next chunk's first entry.
    const Entry* next = i < chunks_[c].size()    ? &chunks_[c][i]
                        : c + 1 < chunks_.size() ? &chunks_[c + 1].front()
                                                 : nullptr;
    if (next != nullptr && addr + size > next->addr) {
      return next;
    }
    // The predecessor is always in chunk c: it lies below `addr`, and so does chunk c's first
    // entry unless addr precedes every chunk or equals that first entry (a successor clash).
    if (i > 0 && chunks_[c][i - 1].addr + chunks_[c][i - 1].size > addr) {
      return &chunks_[c][i - 1];
    }
    if (chunks_[c].size() == kChunkEntries) {
      Split(c);
      if (i > kChunkEntries / 2) {
        ++c;
        i -= kChunkEntries / 2;
      }
    }
    std::vector<Entry>& chunk = chunks_[c];
    chunk.insert(chunk.begin() + static_cast<ptrdiff_t>(i), Entry{addr, size});
    if (i == 0) {
      firsts_[c] = addr;
    }
    ++size_;
    return nullptr;
  }

  // Where a recorded block sits; valid until the next mutation.
  struct Pos {
    size_t chunk;
    size_t index;
  };

  // The position of the block starting exactly at `addr`, or nullopt.
  std::optional<Pos> Find(uint64_t addr) const {
    if (chunks_.empty() || addr < firsts_.front()) {
      return std::nullopt;
    }
    const size_t c = ChunkOf(addr);
    const size_t i = LowerBoundIn(chunks_[c], addr);
    if (i == chunks_[c].size() || chunks_[c][i].addr != addr) {
      return std::nullopt;
    }
    return Pos{c, i};
  }

  const Entry& at(Pos pos) const { return chunks_[pos.chunk][pos.index]; }

  // Removes the block at `pos` (from Find, with no mutation since).
  void Erase(Pos pos) {
    std::vector<Entry>& chunk = chunks_[pos.chunk];
    chunk.erase(chunk.begin() + static_cast<ptrdiff_t>(pos.index));
    --size_;
    if (chunk.empty()) {
      chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(pos.chunk));
      firsts_.erase(firsts_.begin() + static_cast<ptrdiff_t>(pos.chunk));
    } else if (pos.index == 0) {
      firsts_[pos.chunk] = chunk.front().addr;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_chunks() const { return chunks_.size(); }

  // Calls fn(const Entry&) for every block in ascending address order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::vector<Entry>& chunk : chunks_) {
      for (const Entry& e : chunk) {
        fn(e);
      }
    }
  }

 private:
  // The last chunk whose first address is <= addr, or chunk 0 when addr precedes them all.
  size_t ChunkOf(uint64_t addr) const {
    const size_t c =
        static_cast<size_t>(std::upper_bound(firsts_.begin(), firsts_.end(), addr) -
                            firsts_.begin());
    return c == 0 ? 0 : c - 1;
  }

  static size_t LowerBoundIn(const std::vector<Entry>& chunk, uint64_t addr) {
    return static_cast<size_t>(
        std::lower_bound(chunk.begin(), chunk.end(), addr,
                         [](const Entry& e, uint64_t a) { return e.addr < a; }) -
        chunk.begin());
  }

  // Moves the upper half of full chunk `c` into a new chunk right after it.
  void Split(size_t c) {
    std::vector<Entry> upper;
    upper.reserve(kChunkEntries);
    const auto mid = chunks_[c].begin() + static_cast<ptrdiff_t>(kChunkEntries / 2);
    upper.assign(mid, chunks_[c].end());
    chunks_[c].erase(mid, chunks_[c].end());
    firsts_.insert(firsts_.begin() + static_cast<ptrdiff_t>(c + 1), upper.front().addr);
    chunks_.insert(chunks_.begin() + static_cast<ptrdiff_t>(c + 1), std::move(upper));
  }

  std::vector<uint64_t> firsts_;            // first address of each chunk, ascending
  std::vector<std::vector<Entry>> chunks_;  // each non-empty, <= kChunkEntries, ascending
  size_t size_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_LIVE_LEDGER_H_
