// Coverage for src/allocators/live_ledger.h, AllocatorBase's record of live blocks.
//
// The LiveLedger replaced a std::map<addr, size> walked on every Malloc and Free; its contract
// is that every answer — the clash an insert reports, the size an erase returns, the iteration
// order — is the one the map gave. Two layers of evidence:
//   * hand cases that place entries at known chunk positions (ascending inserts split a full
//     chunk in half, so the layout is deterministic) and probe the chunk boundaries;
//   * a seeded fuzz against the std::map reference, asserting identical answers and an identical
//     address-ordered walk after every step, across many chunk splits and removals.

#include "src/allocators/live_ledger.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace stalloc {
namespace {

constexpr size_t kChunk = LiveLedger::kChunkEntries;

// Find then Erase, as AllocatorBase::Free does: the erased block's size, or nullopt with the
// ledger untouched when no block starts at `addr`.
std::optional<uint64_t> EraseAt(LiveLedger* ledger, uint64_t addr) {
  const std::optional<LiveLedger::Pos> pos = ledger->Find(addr);
  if (!pos.has_value()) {
    return std::nullopt;
  }
  const uint64_t size = ledger->at(*pos).size;
  ledger->Erase(*pos);
  return size;
}

std::vector<std::pair<uint64_t, uint64_t>> Entries(const LiveLedger& ledger) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  ledger.ForEach([&](const LiveLedger::Entry& e) { out.emplace_back(e.addr, e.size); });
  return out;
}

// The seed's ledger: the stomping check read the map's successor, then its predecessor.
class MapReference {
 public:
  // nullopt when inserted; otherwise the overlapped entry, the map unchanged.
  std::optional<std::pair<uint64_t, uint64_t>> Insert(uint64_t addr, uint64_t size) {
    auto next = map_.lower_bound(addr);
    if (next != map_.end() && addr + size > next->first) {
      return *next;
    }
    if (next != map_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second > addr) {
        return *prev;
      }
    }
    map_.emplace_hint(next, addr, size);
    return std::nullopt;
  }
  std::optional<uint64_t> Erase(uint64_t addr) {
    auto it = map_.find(addr);
    if (it == map_.end()) {
      return std::nullopt;
    }
    const uint64_t size = it->second;
    map_.erase(it);
    return size;
  }
  std::vector<std::pair<uint64_t, uint64_t>> Entries() const {
    return {map_.begin(), map_.end()};
  }
  const std::map<uint64_t, uint64_t>& map() const { return map_; }

 private:
  std::map<uint64_t, uint64_t> map_;
};

TEST(LiveLedger, EmptyLedgerFindsNothing) {
  LiveLedger ledger;
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.num_chunks(), 0u);
  EXPECT_FALSE(ledger.Find(0).has_value());
  EXPECT_FALSE(EraseAt(&ledger, 0x1000).has_value());
  EXPECT_EQ(ledger.Insert(0x1000, 0x100), nullptr);
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_EQ(EraseAt(&ledger, 0x1000), std::optional<uint64_t>(0x100));
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.num_chunks(), 0u) << "an emptied chunk is removed";
}

// kChunk + 1 ascending inserts split the full chunk: entries [0, kChunk/2) stay in chunk 0,
// the rest move to chunk 1. Blocks are 0x1000 wide, 0x2000 apart, so every gap is 0x1000.
class LiveLedgerBoundary : public ::testing::Test {
 protected:
  static constexpr uint64_t kBase = 0x100000;
  static uint64_t AddrOf(size_t k) { return kBase + k * 0x2000; }

  void SetUp() override {
    for (size_t k = 0; k <= kChunk; ++k) {
      ASSERT_EQ(ledger_.Insert(AddrOf(k), 0x1000), nullptr);
    }
    ASSERT_EQ(ledger_.num_chunks(), 2u);
    snapshot_ = Entries(ledger_);
  }

  void ExpectUnchanged() { EXPECT_EQ(Entries(ledger_), snapshot_); }

  LiveLedger ledger_;
  std::vector<std::pair<uint64_t, uint64_t>> snapshot_;
};

TEST_F(LiveLedgerBoundary, ClashWithLastEntryOfPreviousChunk) {
  const size_t last = kChunk / 2 - 1;  // chunk 0's last entry
  const LiveLedger::Entry* clash = ledger_.Insert(AddrOf(last) + 0x800, 0x100);
  ASSERT_NE(clash, nullptr);
  EXPECT_EQ(clash->addr, AddrOf(last));
  ExpectUnchanged();
}

TEST_F(LiveLedgerBoundary, ClashWithFirstEntryOfNextChunk) {
  const size_t first = kChunk / 2;  // chunk 1's first entry
  // Starts in the gap at the end of chunk 0 and runs into chunk 1.
  const LiveLedger::Entry* clash = ledger_.Insert(AddrOf(first) - 0x800, 0x1000);
  ASSERT_NE(clash, nullptr);
  EXPECT_EQ(clash->addr, AddrOf(first));
  ExpectUnchanged();
  // Exactly filling that gap touches both neighbours and clashes with neither.
  EXPECT_EQ(ledger_.Insert(AddrOf(first) - 0x1000, 0x1000), nullptr);
  EXPECT_EQ(ledger_.size(), kChunk + 2);
}

TEST_F(LiveLedgerBoundary, SameAddressAsChunkFirstClashesAsSuccessor) {
  const size_t first = kChunk / 2;
  const LiveLedger::Entry* clash = ledger_.Insert(AddrOf(first), 0x10);
  ASSERT_NE(clash, nullptr);
  EXPECT_EQ(clash->addr, AddrOf(first));
  ExpectUnchanged();
}

TEST_F(LiveLedgerBoundary, EraseOfChunkFirstMovesTheBoundary) {
  const size_t first = kChunk / 2;
  EXPECT_EQ(EraseAt(&ledger_, AddrOf(first)), std::optional<uint64_t>(0x1000));
  EXPECT_EQ(ledger_.num_chunks(), 2u);
  EXPECT_FALSE(ledger_.Find(AddrOf(first)).has_value());
  // The next entry is now chunk 1's first and still found; the hole left behind is insertable
  // and a block straddling into the new first entry still clashes with it.
  ASSERT_TRUE(ledger_.Find(AddrOf(first + 1)).has_value());
  EXPECT_EQ(ledger_.at(*ledger_.Find(AddrOf(first + 1))).addr, AddrOf(first + 1));
  const LiveLedger::Entry* clash = ledger_.Insert(AddrOf(first) + 0x1800, 0x1000);
  ASSERT_NE(clash, nullptr);
  EXPECT_EQ(clash->addr, AddrOf(first + 1));
  EXPECT_EQ(ledger_.Insert(AddrOf(first), 0x2000), nullptr);
  EXPECT_EQ(ledger_.size(), kChunk + 1);
}

TEST_F(LiveLedgerBoundary, UnknownEraseMutatesNothing) {
  EXPECT_FALSE(EraseAt(&ledger_, AddrOf(3) + 0x10).has_value()) << "interior";
  EXPECT_FALSE(EraseAt(&ledger_, AddrOf(kChunk / 2) - 0x1000).has_value()) << "gap before chunk 1";
  EXPECT_FALSE(EraseAt(&ledger_, kBase - 0x1000).has_value()) << "below every chunk";
  EXPECT_FALSE(EraseAt(&ledger_, AddrOf(kChunk + 1)).has_value()) << "above every chunk";
  ExpectUnchanged();
}

TEST_F(LiveLedgerBoundary, DrainingAChunkRemovesIt) {
  for (size_t k = 0; k < kChunk / 2; ++k) {
    ASSERT_TRUE(EraseAt(&ledger_, AddrOf(k)).has_value());
  }
  EXPECT_EQ(ledger_.num_chunks(), 1u);
  // A block below everything now lands in front of the surviving chunk.
  EXPECT_EQ(ledger_.Insert(AddrOf(0), 0x1000), nullptr);
  const auto entries = Entries(ledger_);
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
  EXPECT_EQ(entries.front().first, AddrOf(0));
  EXPECT_EQ(entries.size(), kChunk / 2 + 2);
}

// Seeded random inserts and erases against the std::map reference. Addresses come from a
// narrow grid so that clashes (both neighbours, any overlap) are frequent; live counts swing
// between empty and hundreds of entries, so chunks split and empty out many times.
TEST(LiveLedger, MatchesMapReferenceUnderRandomOps) {
  for (const uint32_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    LiveLedger ledger;
    MapReference ref;
    size_t splits = 0;
    size_t removals = 0;
    size_t clashes = 0;
    size_t unknown_erases = 0;
    for (int round = 0; round < 6; ++round) {
      // Grow to a few hundred entries, then drain to empty.
      for (const bool grow : {true, false}) {
        for (int step = 0; step < 4000; ++step) {
          const size_t chunks_before = ledger.num_chunks();
          const bool insert = grow ? rng() % 4 != 0 : rng() % 4 == 0;
          if (insert) {
            const uint64_t addr = (rng() % 8192) * 16;
            const uint64_t size = (1 + rng() % 6) * 16;
            const auto want = ref.Insert(addr, size);
            const LiveLedger::Entry* got = ledger.Insert(addr, size);
            ASSERT_EQ(got == nullptr, !want.has_value()) << addr << "+" << size;
            if (got != nullptr) {
              ++clashes;
              EXPECT_EQ(got->addr, want->first);
              EXPECT_EQ(got->size, want->second);
            }
          } else if (!ref.map().empty() && rng() % 8 != 0) {
            // Erase a live entry.
            auto it = ref.map().begin();
            std::advance(it, static_cast<ptrdiff_t>(rng() % ref.map().size()));
            const uint64_t addr = it->first;
            const uint64_t size = it->second;
            ASSERT_EQ(ref.Erase(addr), std::optional<uint64_t>(size));
            EXPECT_EQ(EraseAt(&ledger, addr), std::optional<uint64_t>(size));
          } else {
            const uint64_t addr = (rng() % 8192) * 16 + (rng() % 2) * 8;
            const auto want = ref.Erase(addr);
            if (want.has_value()) {
              EXPECT_EQ(EraseAt(&ledger, addr), want);
            } else {
              ++unknown_erases;
              EXPECT_FALSE(EraseAt(&ledger, addr).has_value()) << addr;
              EXPECT_FALSE(ledger.Find(addr).has_value()) << addr;
            }
          }
          splits += ledger.num_chunks() > chunks_before;
          removals += ledger.num_chunks() < chunks_before;
          ASSERT_EQ(ledger.size(), ref.map().size());
          ASSERT_EQ(Entries(ledger), ref.Entries()) << "diverged at step " << step;
        }
        if (!grow) {
          // Drain whatever the random erases left behind.
          while (!ref.map().empty()) {
            const uint64_t addr = ref.map().begin()->first;
            ASSERT_EQ(EraseAt(&ledger, addr), ref.Erase(addr));
          }
          EXPECT_TRUE(ledger.empty());
          EXPECT_EQ(ledger.num_chunks(), 0u);
        }
      }
    }
    EXPECT_GT(splits, 20u);
    EXPECT_GT(removals, 20u);
    EXPECT_GT(clashes, 1000u);
    EXPECT_GT(unknown_erases, 100u);
  }
}

}  // namespace
}  // namespace stalloc
