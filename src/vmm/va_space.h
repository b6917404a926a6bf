// VaSpace: one reserved virtual-address range with a page-granular map table.
//
// The CUDA VMM model (cuMemAddressReserve + cuMemMap): the VA range is reserved once, up
// front, and physical handles are mapped and unmapped beneath it page by page. VaSpace owns
// the reservation and the page table; which pages *should* be mapped — and where the handles
// come from — is the allocator's policy (vmm_allocator.cc), not this class's.
//
// The page table is flat: one MemHandle per page, 0 for an unmapped page (SimDevice hands out
// handles from 1), plus a count of mapped pages. Every large VMM malloc and free probes it once
// per page, so lookups, maps and unmaps are O(1) array accesses. The array covers pages up to
// the highest one ever mapped and grows on demand, so construction costs nothing and walks
// (idle-page search, release, heap-map runs, teardown) scan only the prefix in use, in page
// order. Fully grown at the default 2 MiB granularity, an 80 GiB device's 2x reservation costs
// 640 KiB of table.

#ifndef SRC_VMM_VA_SPACE_H_
#define SRC_VMM_VA_SPACE_H_

#include <cstdint>
#include <vector>

#include "src/gpu/sim_device.h"

namespace stalloc {

class VaSpace {
 public:
  // Reserves `size` bytes (must be a multiple of `granularity`) of virtual address space.
  // Reservation happens exactly once, here; it cannot fail for lack of space (VA is
  // plentiful), only on misalignment, which aborts.
  VaSpace(SimDevice* device, uint64_t size, uint64_t granularity);
  // Unmaps and releases any still-mapped handles, then frees the reservation. Owners that
  // want cached-handle reuse across teardown must drain the table themselves first.
  ~VaSpace();

  VaSpace(const VaSpace&) = delete;
  VaSpace& operator=(const VaSpace&) = delete;

  VaPtr base() const { return va_; }
  uint64_t size() const { return size_; }
  uint64_t granularity() const { return granularity_; }
  uint64_t num_pages() const { return size_ / granularity_; }
  uint64_t PageOf(uint64_t offset) const { return offset / granularity_; }

  bool IsMapped(uint64_t page) const {
    return page < pages_.size() && pages_[page] != kUnmapped;
  }
  uint64_t mapped_pages() const { return mapped_pages_; }
  uint64_t mapped_bytes() const { return mapped_pages_ * granularity_; }

  // Maps `handle` (granularity() bytes, currently unmapped) at page index `page`. The target
  // page must be inside the reservation and unmapped; violations abort — the allocator's page
  // accounting, not the device, decides what gets mapped where.
  void MapPage(uint64_t page, MemHandle handle);

  // Unmaps page `page` and returns the handle that was mapped there, ready for remapping
  // elsewhere or release.
  MemHandle UnmapPage(uint64_t page);

  // The handle mapped at each page index, kUnmapped where none is; every page at or past its
  // end is unmapped. Heap-map snapshots walk this to report contiguous mapped runs.
  static constexpr MemHandle kUnmapped = 0;
  const std::vector<MemHandle>& page_table() const { return pages_; }

 private:
  SimDevice* device_;
  VaPtr va_ = 0;
  uint64_t size_;
  uint64_t granularity_;
  std::vector<MemHandle> pages_;  // up to the highest page ever mapped
  uint64_t mapped_pages_ = 0;
};

}  // namespace stalloc

#endif  // SRC_VMM_VA_SPACE_H_
