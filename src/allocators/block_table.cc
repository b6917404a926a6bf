#include "src/allocators/block_table.h"

#include <cstdint>
#include <optional>

#include "src/common/check.h"

namespace stalloc {

uint32_t BlockTable::NewBlockSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  blocks_.emplace_back();
  return static_cast<uint32_t>(blocks_.size() - 1);
}

uint32_t BlockTable::FindBlock(uint64_t addr) const {
  auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? kNoBlock : it->second;
}

size_t BlockTable::FindList(uint64_t key) const {
  size_t i = 0;
  while (i < list_keys_.size() && list_keys_[i] != key) {
    ++i;
  }
  return i;
}

uint32_t BlockTable::AddSegment(uint64_t base, uint64_t size, uint64_t key) {
  Segment seg;
  seg.base = base;
  seg.key = key;
  seg.list = static_cast<uint32_t>(FindList(key));
  if (seg.list == lists_.size()) {
    list_keys_.push_back(key);
    lists_.emplace_back();
  }
  const uint32_t id = static_cast<uint32_t>(segments_.size());
  segments_.push_back(seg);
  if (size > 0) {
    GrowTail(id, size);
  }
  return id;
}

std::optional<uint64_t> BlockTable::Take(uint64_t key, uint64_t size, uint64_t min_split) {
  const size_t list = FindList(key);
  if (list == lists_.size()) {
    return std::nullopt;
  }
  auto best = lists_[list].PopBestFit(size);
  if (!best.has_value()) {
    return std::nullopt;
  }
  const uint32_t slot = FindBlock(best->second);
  STALLOC_CHECK(slot != kNoBlock && blocks_[slot].free);
  TakeSlot(slot, size, min_split);
  return best->second;
}

void BlockTable::TakeAt(uint64_t addr, uint64_t size, uint64_t min_split) {
  const uint32_t slot = FindBlock(addr);
  STALLOC_CHECK(slot != kNoBlock && blocks_[slot].free,
                << "block table: take of a block that is not free at " << addr);
  lists_[segments_[blocks_[slot].segment].list].Erase(blocks_[slot].size, addr);
  TakeSlot(slot, size, min_split);
}

void BlockTable::TakeSlot(uint32_t slot, uint64_t size, uint64_t min_split) {
  Block& block = blocks_[slot];
  STALLOC_CHECK_GE(block.size, size);
  block.free = false;
  Segment& seg = segments_[block.segment];
  seg.free_bytes -= block.size;
  const uint64_t remainder = block.size - size;
  if (remainder == 0 || remainder < min_split) {
    return;
  }
  const uint32_t rest_slot = NewBlockSlot();
  Block& b = blocks_[slot];  // re-fetch: NewBlockSlot may reallocate the pool
  b.size = size;
  Block& rest = blocks_[rest_slot];
  rest.addr = b.addr + size;
  rest.size = remainder;
  rest.free = true;
  rest.segment = b.segment;
  // Link the remainder right after the block in the segment's address-ordered list.
  rest.prev = slot;
  rest.next = b.next;
  if (b.next != kNoBlock) {
    blocks_[b.next].prev = rest_slot;
  } else {
    seg.last = rest_slot;
  }
  b.next = rest_slot;
  by_addr_.emplace(rest.addr, rest_slot);
  seg.free_bytes += remainder;
  lists_[seg.list].Insert(remainder, rest.addr);
}

BlockTable::Released BlockTable::Release(uint64_t addr) {
  const uint32_t slot = FindBlock(addr);
  STALLOC_CHECK(slot != kNoBlock && !blocks_[slot].free,
                << "block table: free of unknown block " << addr);
  Block& block = blocks_[slot];
  block.free = true;
  const Released released{block.segment, block.size};
  segments_[block.segment].free_bytes += block.size;
  Coalesce(slot);
  return released;
}

void BlockTable::Coalesce(uint32_t slot) {
  Block& block = blocks_[slot];
  Segment& seg = segments_[block.segment];
  BestFitIndex& free_list = lists_[seg.list];

  // Merge with the next block if free (list neighbours are contiguous within the segment).
  const uint32_t next = block.next;
  if (next != kNoBlock && blocks_[next].free) {
    STALLOC_DCHECK_EQ(block.addr + block.size, blocks_[next].addr);
    free_list.Erase(blocks_[next].size, blocks_[next].addr);
    by_addr_.erase(blocks_[next].addr);
    block.size += blocks_[next].size;
    block.next = blocks_[next].next;
    if (block.next != kNoBlock) {
      blocks_[block.next].prev = slot;
    } else {
      seg.last = slot;
    }
    ReleaseBlockSlot(next);
  }
  // Merge with the previous block.
  uint32_t merged = slot;
  const uint32_t prev = block.prev;
  if (prev != kNoBlock && blocks_[prev].free) {
    STALLOC_DCHECK_EQ(blocks_[prev].addr + blocks_[prev].size, block.addr);
    free_list.Erase(blocks_[prev].size, blocks_[prev].addr);
    by_addr_.erase(block.addr);
    blocks_[prev].size += block.size;
    blocks_[prev].next = block.next;
    if (block.next != kNoBlock) {
      blocks_[block.next].prev = prev;
    } else {
      seg.last = prev;
    }
    ReleaseBlockSlot(slot);
    merged = prev;
  }
  free_list.Insert(blocks_[merged].size, blocks_[merged].addr);
}

void BlockTable::DropSegment(uint32_t seg_id) {
  Segment& seg = segments_[seg_id];
  STALLOC_CHECK(seg.fully_free());
  if (seg.size > 0) {
    // A fully-free segment is one free block (coalescing guarantees it).
    const uint32_t slot = FindBlock(seg.base);
    STALLOC_CHECK(slot != kNoBlock && blocks_[slot].size == seg.size);
    lists_[seg.list].Erase(seg.size, seg.base);
    by_addr_.erase(seg.base);
    ReleaseBlockSlot(slot);
  }
  seg.dropped = true;
  seg.free_bytes = 0;
  seg.last = kNoBlock;
}

void BlockTable::GrowTail(uint32_t seg_id, uint64_t bytes) {
  Segment& seg = segments_[seg_id];
  STALLOC_CHECK(!seg.dropped && bytes > 0);
  BestFitIndex& free_list = lists_[seg.list];
  const uint32_t last = seg.last;
  if (last != kNoBlock && blocks_[last].free) {
    free_list.Erase(blocks_[last].size, blocks_[last].addr);
    blocks_[last].size += bytes;
    free_list.Insert(blocks_[last].size, blocks_[last].addr);
  } else {
    const uint32_t slot = NewBlockSlot();
    Block& block = blocks_[slot];
    block.addr = seg.base + seg.size;
    block.size = bytes;
    block.free = true;
    block.segment = seg_id;
    block.prev = last;
    block.next = kNoBlock;
    if (last != kNoBlock) {
      blocks_[last].next = slot;
    }
    seg.last = slot;
    const bool inserted = by_addr_.emplace(block.addr, slot).second;
    STALLOC_CHECK(inserted);
    free_list.Insert(bytes, block.addr);
  }
  seg.size += bytes;
  seg.free_bytes += bytes;
}

void BlockTable::ShrinkTail(uint32_t seg_id, uint64_t new_size) {
  Segment& seg = segments_[seg_id];
  const uint32_t last = seg.last;
  STALLOC_CHECK(new_size < seg.size && last != kNoBlock && blocks_[last].free &&
                    blocks_[last].addr <= seg.base + new_size,
                << "block table: shrink cuts into a taken block");
  Block& block = blocks_[last];
  BestFitIndex& free_list = lists_[seg.list];
  free_list.Erase(block.size, block.addr);
  const uint64_t cut = seg.size - new_size;
  seg.size = new_size;
  seg.free_bytes -= cut;
  if (block.addr < seg.base + new_size) {
    block.size -= cut;
    free_list.Insert(block.size, block.addr);
    return;
  }
  seg.last = block.prev;
  if (block.prev != kNoBlock) {
    blocks_[block.prev].next = kNoBlock;
  }
  by_addr_.erase(block.addr);
  ReleaseBlockSlot(last);
}

uint64_t BlockTable::TailFree(uint32_t seg) const {
  const uint32_t last = segments_[seg].last;
  return last != kNoBlock && blocks_[last].free ? blocks_[last].size : 0;
}

}  // namespace stalloc
