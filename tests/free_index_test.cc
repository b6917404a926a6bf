// Coverage for src/allocators/free_index.h, src/allocators/block_table.h and the allocators
// that place blocks through them.
//
// The BestFitIndex replaced the flat ordered (size, addr) sets the caching-style allocators
// searched linearly through node-based trees; its contract is that every selection is
// bit-identical to what lower_bound on the flat set would have picked. The BlockTable replaced
// four private split/coalesce copies with one. Three layers of evidence:
//   * a reference model — the seed's std::set<(size, addr)> — driven with the same adversarial
//     insert/erase/pop interleavings, asserting identical decisions op by op;
//   * a brute-force std::map block table driven with seeded segment, take, release and tail
//     operations, asserting the same picks and the table's tiling invariants after every op;
//   * pinned placement: Ma/Mr and the placement digest of the caching, expandable, GMLake and
//     VMM allocators over a recorded storm trace and a training trace must equal values
//     recorded from the pre-refactor allocators.

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/block_table.h"
#include "src/allocators/caching_allocator.h"
#include "src/allocators/expandable_segments.h"
#include "src/allocators/free_index.h"
#include "src/allocators/gmlake.h"
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"
#include "src/vmm/vmm_allocator.h"

namespace stalloc {
namespace {

// The seed's free-list representation: one flat ordered set of (size, addr), best fit via
// lower_bound. The index under test must reproduce its decisions exactly.
class FlatReference {
 public:
  void Insert(uint64_t size, uint64_t addr) { set_.emplace(size, addr); }
  void Erase(uint64_t size, uint64_t addr) {
    ASSERT_EQ(set_.erase({size, addr}), 1u) << "reference erase of unknown block";
  }
  std::optional<std::pair<uint64_t, uint64_t>> PopBestFit(uint64_t min_size) {
    auto it = set_.lower_bound({min_size, 0});
    if (it == set_.end()) {
      return std::nullopt;
    }
    auto best = *it;
    set_.erase(it);
    return best;
  }
  std::optional<std::pair<uint64_t, uint64_t>> BestFit(uint64_t min_size) const {
    auto it = set_.lower_bound({min_size, 0});
    return it == set_.end() ? std::nullopt : std::optional<std::pair<uint64_t, uint64_t>>(*it);
  }
  size_t size() const { return set_.size(); }
  uint64_t largest_size() const { return set_.empty() ? 0 : set_.rbegin()->first; }

 private:
  std::set<std::pair<uint64_t, uint64_t>> set_;
};

TEST(BestFitIndex, EmptyIndexFindsNothing) {
  BestFitIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.largest_size(), 0u);
  EXPECT_FALSE(index.BestFit(1).has_value());
  EXPECT_FALSE(index.PopBestFit(1).has_value());
}

TEST(BestFitIndex, PopPicksSmallestSufficientSizeThenLowestAddress) {
  BestFitIndex index;
  index.Insert(4096, 300);
  index.Insert(4096, 100);
  index.Insert(4096, 200);
  index.Insert(8192, 50);
  // Smallest size >= 4096 is the 4096 bucket; lowest address wins within it.
  auto best = index.PopBestFit(4000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, (std::pair<uint64_t, uint64_t>{4096, 100}));
  // A request above 4096 skips the bucket entirely.
  best = index.PopBestFit(5000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, (std::pair<uint64_t, uint64_t>{8192, 50}));
  // Nothing fits above the largest size.
  EXPECT_FALSE(index.PopBestFit(10000).has_value());
  EXPECT_EQ(index.size(), 2u);
}

TEST(BestFitIndex, KeptAliveEmptyBucketsAreSkipped) {
  BestFitIndex index;
  index.Insert(512, 10);
  index.Insert(1024, 20);
  ASSERT_TRUE(index.PopBestFit(512).has_value());  // empties the 512 bucket, keeps it alive
  EXPECT_EQ(index.num_size_buckets(), 2u);
  auto best = index.PopBestFit(1);  // must walk past the empty 512 bucket
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, 1024u);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.largest_size(), 0u);
  // The bucket revives on the next insert of that size without growing the size array.
  index.Insert(512, 11);
  EXPECT_EQ(index.num_size_buckets(), 2u);
  EXPECT_EQ(index.largest_size(), 512u);
}

TEST(BestFitIndex, EraseRemovesSpecificBlocks) {
  BestFitIndex index;
  index.Insert(4096, 100);
  index.Insert(4096, 200);
  index.Insert(4096, 300);
  index.Erase(4096, 200);  // a middle neighbour being coalesced away
  auto best = index.PopBestFit(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, 100u);
  best = index.PopBestFit(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, 300u);
  EXPECT_TRUE(index.empty());
}

// A deep single-size bucket freed in adversarial (descending, then shuffled) order: the seed's
// tree walked O(log n) nodes per op here, and a naive bucket insert would shift O(n). Every pop
// must still be the lowest live address.
TEST(BestFitIndex, DeepSameSizeBucketPopsInAddressOrder) {
  BestFitIndex index;
  FlatReference ref;
  uint64_t rng = 7;
  auto rnd = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<uint64_t> addrs;
  for (uint64_t i = 0; i < 2000; ++i) {
    addrs.push_back((i + 1) * 4096);
  }
  for (size_t i = addrs.size(); i > 1; --i) {  // Fisher-Yates with the deterministic rng
    std::swap(addrs[i - 1], addrs[rnd() % i]);
  }
  for (uint64_t a : addrs) {
    index.Insert(1 * MiB, a);
    ref.Insert(1 * MiB, a);
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    auto got = index.PopBestFit(1 * MiB);
    auto want = ref.PopBestFit(1 * MiB);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, *want) << "pop " << i;
  }
  EXPECT_TRUE(index.empty());
}

// Randomized adversarial interleavings of insert / erase / pop / peek against the reference
// flat set: every decision must match, op by op. The palette mirrors the caching allocator's
// rounded request sizes (a few dozen recurring values, deep buckets).
TEST(BestFitIndex, FuzzMatchesFlatSetReference) {
  BestFitIndex index;
  FlatReference ref;
  uint64_t rng = 12345;
  auto rnd = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<uint64_t> palette;
  for (uint64_t k = 1; k <= 16; ++k) {
    palette.push_back(k * 512);
  }
  for (uint64_t k = 1; k <= 16; ++k) {
    palette.push_back(k * 2 * MiB);
  }
  std::vector<std::pair<uint64_t, uint64_t>> live;
  uint64_t next_addr = 1;
  for (int op = 0; op < 50000; ++op) {
    const uint64_t dice = rnd() % 100;
    if (dice < 45 || live.empty()) {
      const uint64_t size = palette[rnd() % palette.size()];
      const uint64_t addr = (next_addr++) * 512;
      index.Insert(size, addr);
      ref.Insert(size, addr);
      live.emplace_back(size, addr);
    } else if (dice < 60) {
      // Erase a random live block (the coalesce path removes arbitrary members).
      const size_t pick = rnd() % live.size();
      const auto [size, addr] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      index.Erase(size, addr);
      ref.Erase(size, addr);
    } else if (dice < 90) {
      // Pop best fit for a request that may fall between buckets.
      const uint64_t want = palette[rnd() % palette.size()] - (rnd() % 512);
      auto got = index.PopBestFit(want);
      auto expect = ref.PopBestFit(want);
      ASSERT_EQ(got, expect) << "op " << op << " want " << want;
      if (got.has_value()) {
        for (size_t i = 0; i < live.size(); ++i) {
          if (live[i] == *got) {
            live[i] = live.back();
            live.pop_back();
            break;
          }
        }
      }
    } else {
      const uint64_t want = 1 + rnd() % (64 * MiB);
      ASSERT_EQ(index.BestFit(want), ref.BestFit(want)) << "op " << op;
    }
    ASSERT_EQ(index.size(), ref.size());
    ASSERT_EQ(index.largest_size(), ref.largest_size());
  }
}

// --- BlockTable vs. a brute-force std::map block table ---

// Every block of every segment in one address-ordered map; best fit by a full scan. This is the
// shape the GMLake, expandable and VMM copies had before they moved onto BlockTable.
class BlockTableReference {
 public:
  struct Block {
    uint64_t size = 0;
    bool free = true;
    uint32_t segment = 0;
  };
  struct Segment {
    uint64_t base = 0;
    uint64_t size = 0;
    uint64_t key = 0;
    bool dropped = false;
  };

  void AddSegment(uint64_t base, uint64_t size, uint64_t key) {
    segments.push_back({base, size, key, false});
    if (size > 0) {
      blocks[base] = {size, true, static_cast<uint32_t>(segments.size() - 1)};
    }
  }
  std::optional<uint64_t> Take(uint64_t key, uint64_t size, uint64_t min_split) {
    auto best = blocks.end();
    for (auto it = blocks.begin(); it != blocks.end(); ++it) {
      const Block& b = it->second;
      if (b.free && segments[b.segment].key == key && b.size >= size &&
          (best == blocks.end() || b.size < best->second.size)) {
        best = it;  // strict < keeps the lowest address among equal sizes
      }
    }
    if (best == blocks.end()) {
      return std::nullopt;
    }
    Block& b = best->second;
    b.free = false;
    const uint64_t remainder = b.size - size;
    if (remainder > 0 && remainder >= min_split) {
      b.size = size;
      blocks[best->first + size] = {remainder, true, b.segment};
    }
    return best->first;
  }
  void Release(uint64_t addr) {
    auto it = blocks.find(addr);
    it->second.free = true;
    auto next = std::next(it);
    if (next != blocks.end() && Mergeable(it, next)) {
      it->second.size += next->second.size;
      blocks.erase(next);
    }
    if (it != blocks.begin() && Mergeable(std::prev(it), it)) {
      std::prev(it)->second.size += it->second.size;
      blocks.erase(it);
    }
  }
  void DropSegment(uint32_t seg) {
    if (segments[seg].size > 0) {
      blocks.erase(segments[seg].base);
    }
    segments[seg].dropped = true;
  }
  void GrowTail(uint32_t seg, uint64_t bytes) {
    Segment& s = segments[seg];
    auto tail = Tail(seg);
    if (tail != blocks.end() && tail->second.free) {
      tail->second.size += bytes;
    } else {
      blocks[s.base + s.size] = {bytes, true, seg};
    }
    s.size += bytes;
  }
  void ShrinkTail(uint32_t seg, uint64_t new_size) {
    Segment& s = segments[seg];
    auto tail = Tail(seg);
    if (tail->first < s.base + new_size) {
      tail->second.size -= s.size - new_size;
    } else {
      blocks.erase(tail);
    }
    s.size = new_size;
  }
  // The block holding the segment's last byte, or end().
  std::map<uint64_t, Block>::iterator Tail(uint32_t seg) {
    const Segment& s = segments[seg];
    if (s.size == 0) {
      return blocks.end();
    }
    return std::prev(blocks.upper_bound(s.base + s.size - 1));
  }

  std::map<uint64_t, Block> blocks;
  std::vector<Segment> segments;

 private:
  bool Mergeable(std::map<uint64_t, Block>::iterator lo, std::map<uint64_t, Block>::iterator hi) {
    return lo->second.free && hi->second.free && lo->second.segment == hi->second.segment &&
           lo->first + lo->second.size == hi->first;
  }
};

// Checks every BlockTable invariant against the reference: each live segment is tiled by its
// blocks, no two free blocks of a segment touch, free_bytes is the sum of its free blocks, and
// the blocks are exactly the reference's.
void ExpectTableMatchesReference(const BlockTable& table, BlockTableReference& ref) {
  ASSERT_EQ(table.num_segments(), ref.segments.size());
  size_t blocks_seen = 0;
  for (uint32_t id = 0; id < table.num_segments(); ++id) {
    const BlockTable::Segment& seg = table.segment(id);
    const BlockTableReference::Segment& want = ref.segments[id];
    ASSERT_EQ(seg.dropped, want.dropped) << "segment " << id;
    ASSERT_EQ(seg.key, want.key);
    if (seg.dropped) {
      ASSERT_EQ(seg.free_bytes, 0u);
      continue;
    }
    ASSERT_EQ(seg.base, want.base);
    ASSERT_EQ(seg.size, want.size);
    uint64_t cursor = seg.base;
    uint64_t free_bytes = 0;
    bool prev_free = false;
    uint64_t tail_free = 0;
    table.ForEachBlock(id, [&](const BlockTable::Block& b) {
      EXPECT_EQ(b.addr, cursor) << "segment " << id << " is not tiled";
      EXPECT_EQ(b.segment, id);
      EXPECT_FALSE(prev_free && b.free) << "adjacent free blocks at " << b.addr;
      auto it = ref.blocks.find(b.addr);
      EXPECT_TRUE(it != ref.blocks.end() && it->second.size == b.size &&
                  it->second.free == b.free)
          << "block " << b.addr << " differs from the reference";
      cursor = b.addr + b.size;
      free_bytes += b.free ? b.size : 0;
      prev_free = b.free;
      tail_free = b.free ? b.size : 0;
      ++blocks_seen;
    });
    ASSERT_EQ(cursor, seg.base + seg.size) << "segment " << id << " is not tiled to its end";
    ASSERT_EQ(seg.free_bytes, free_bytes) << "segment " << id;
    ASSERT_EQ(table.TailFree(id), tail_free) << "segment " << id;
  }
  ASSERT_EQ(blocks_seen, ref.blocks.size());
}

// Seeded interleavings of every BlockTable operation over several pool keys, with the three
// split thresholds the allocators pass (>= 512, > 1 MiB, any remainder): every take must pick
// the reference's block and the tables must agree after every op.
TEST(BlockTable, FuzzMatchesBruteForceReference) {
  BlockTable table;
  BlockTableReference ref;
  uint64_t rng = 20240611;
  auto rnd = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const uint64_t kSplits[] = {512, 1 * MiB + 1, 1};
  std::vector<uint64_t> taken;
  for (int op = 0; op < 20000; ++op) {
    SCOPED_TRACE(op);
    const uint64_t dice = rnd() % 100;
    const uint32_t num_segs = static_cast<uint32_t>(ref.segments.size());
    if (dice < 6 || num_segs == 0) {
      if (num_segs >= 24) {
        continue;
      }
      // Segments sit 4 GiB apart so tails can grow without meeting the next one.
      const uint64_t base = (uint64_t{num_segs} + 1) << 32;
      const uint64_t size = (rnd() % 4 == 0) ? 0 : (1 + rnd() % 8192) * 512;
      const uint64_t key = rnd() % 4;
      EXPECT_EQ(table.AddSegment(base, size, key), num_segs);
      ref.AddSegment(base, size, key);
    } else if (dice < 55) {
      const uint64_t key = rnd() % 4;
      const uint64_t size = (rnd() % 3 == 0) ? (1 + rnd() % 4096) * 512 : (1 + rnd() % 16) * 512;
      const uint64_t min_split = kSplits[rnd() % 3];
      auto got = table.Take(key, size, min_split);
      ASSERT_EQ(got, ref.Take(key, size, min_split)) << "take " << size << " key " << key;
      if (got.has_value()) {
        taken.push_back(*got);
      }
    } else if (dice < 85) {
      if (taken.empty()) {
        continue;
      }
      const size_t pick = rnd() % taken.size();
      const uint64_t addr = taken[pick];
      taken[pick] = taken.back();
      taken.pop_back();
      const BlockTable::Released released = table.Release(addr);
      EXPECT_EQ(released.size, ref.blocks.at(addr).size);
      EXPECT_EQ(released.segment, ref.blocks.at(addr).segment);
      ref.Release(addr);
    } else if (dice < 92) {
      const uint32_t seg = static_cast<uint32_t>(rnd() % num_segs);
      if (ref.segments[seg].dropped) {
        continue;
      }
      const uint64_t bytes = (1 + rnd() % 2048) * 512;
      table.GrowTail(seg, bytes);
      ref.GrowTail(seg, bytes);
    } else if (dice < 98) {
      const uint32_t seg = static_cast<uint32_t>(rnd() % num_segs);
      const uint64_t tail = table.TailFree(seg);
      if (ref.segments[seg].dropped || tail == 0) {
        continue;
      }
      // Cut anywhere inside the free tail block, down to (and including) its start.
      const uint64_t size = ref.segments[seg].size;
      const uint64_t new_size = size - tail + (rnd() % (tail / 512)) * 512;
      table.ShrinkTail(seg, new_size);
      ref.ShrinkTail(seg, new_size);
    } else {
      const uint32_t seg = static_cast<uint32_t>(rnd() % num_segs);
      if (!table.segment(seg).fully_free()) {
        continue;
      }
      table.DropSegment(seg);
      ref.DropSegment(seg);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectTableMatchesReference(table, ref));
    if (HasFailure()) {
      return;
    }
  }
}

// --- pinned placement: the refactored allocators vs. the seed allocators ---

struct GoldenRun {
  uint64_t allocated_peak = 0;  // Ma — trace property, sanity-checks the replay
  uint64_t reserved_peak = 0;   // Mr — the placement-policy pin
  uint64_t digest = 0;          // PlacementDigestObserver over every placement
};

void ExpectPinnedPlacement(const Trace& trace, Allocator* alloc, const GoldenRun& golden) {
  PlacementDigestObserver digest;
  ReplayResult r = ReplayTrace(trace, alloc, &digest);
  ASSERT_FALSE(r.oom);
  EXPECT_EQ(alloc->stats().allocated_peak, golden.allocated_peak);
  EXPECT_EQ(alloc->stats().reserved_peak, golden.reserved_peak);
  EXPECT_EQ(alloc->ReservedBytes(), golden.reserved_peak);  // nothing released mid-run
  EXPECT_EQ(digest.digest(), golden.digest) << alloc->name();
}

// Golden Ma/Mr recorded from the pre-refactor (flat std::set / std::map) allocators at commit
// fd08432 on these exact traces; the vmm rows and every digest were recorded from the
// allocators as they stood before their blocks moved into one BlockTable (commit 61303b0).
// Neither the indexed free lists nor the shared table may move a single placement.
TEST(PinnedPlacement, StormTraceMatchesSeedAllocators) {
  const Trace storm = BuildStormTrace(10000, 42);
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12509511680ull, 12059000724951435237ull});
  }
  {
    SimDevice dev(64ull * GiB);
    ExpandableSegmentsAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12427722752ull, 9801708221398694493ull});
  }
  {
    SimDevice dev(64ull * GiB);
    GMLakeAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12509511680ull, 8154891361418957589ull});
  }
  {
    SimDevice dev(64ull * GiB);
    VmmAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12486443008ull, 4387407872201382045ull});
  }
}

TEST(PinnedPlacement, TrainingTraceMatchesSeedAllocators) {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  WorkloadBuilder wb(Gpt2_345M(), config);
  const Trace train = wb.Build(2);
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7992246272ull, 264432073349602614ull});
  }
  {
    SimDevice dev(64ull * GiB);
    ExpandableSegmentsAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7117733888ull, 5673196850915168710ull});
  }
  {
    SimDevice dev(64ull * GiB);
    GMLakeAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7992246272ull, 18404988867291768762ull});
  }
  {
    SimDevice dev(64ull * GiB);
    VmmAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7109345280ull, 14075429361874008834ull});
  }
}

// Placement must also be run-to-run deterministic: two fresh replays of the same storm hand out
// byte-identical address sequences.
TEST(PinnedPlacement, StormReplayIsDeterministic) {
  const Trace storm = BuildStormTrace(5000, 9);
  class AddrRecorder : public ReplayObserver {
   public:
    void AfterMalloc(ReplayEngine&, const ReplayOpView&, uint64_t addr) override {
      addrs.push_back(addr);
    }
    std::vector<uint64_t> addrs;
  };
  AddrRecorder first, second;
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ASSERT_FALSE(ReplayTrace(storm, &alloc, &first).oom);
  }
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ASSERT_FALSE(ReplayTrace(storm, &alloc, &second).oom);
  }
  ASSERT_EQ(first.addrs.size(), second.addrs.size());
  EXPECT_EQ(first.addrs, second.addrs);
}

}  // namespace
}  // namespace stalloc
