#include "src/vmm/va_space.h"

#include "src/common/check.h"

namespace stalloc {

VaSpace::VaSpace(SimDevice* device, uint64_t size, uint64_t granularity)
    : device_(device), size_(size), granularity_(granularity) {
  STALLOC_CHECK(size > 0 && size % granularity == 0,
                << "VA size " << size << " not a multiple of granularity " << granularity);
  auto va = device_->ReserveVa(size);
  STALLOC_CHECK(va.has_value(), << "VA reservation of " << size << " bytes failed");
  va_ = *va;
}

VaSpace::~VaSpace() {
  for (uint64_t page = 0; page < pages_.size(); ++page) {
    if (pages_[page] != kUnmapped) {
      STALLOC_CHECK(device_->MemUnmap(va_, page * granularity_, granularity_) ==
                    DeviceStatus::kOk);
      STALLOC_CHECK(device_->MemRelease(pages_[page]) == DeviceStatus::kOk);
    }
  }
  STALLOC_CHECK(device_->FreeVa(va_) == DeviceStatus::kOk);
}

void VaSpace::MapPage(uint64_t page, MemHandle handle) {
  STALLOC_CHECK_LT(page, num_pages(), << "VMM map outside the reservation");
  STALLOC_CHECK(!IsMapped(page), << "VMM double map of page " << page);
  STALLOC_CHECK_NE(handle, kUnmapped, << "VMM map of the null handle");
  STALLOC_CHECK(device_->MemMap(va_, page * granularity_, handle) == DeviceStatus::kOk);
  if (page >= pages_.size()) {
    pages_.resize(page + 1, kUnmapped);
  }
  pages_[page] = handle;
  ++mapped_pages_;
}

MemHandle VaSpace::UnmapPage(uint64_t page) {
  STALLOC_CHECK(IsMapped(page), << "VMM unmap of unmapped page " << page);
  const MemHandle handle = pages_[page];
  STALLOC_CHECK(device_->MemUnmap(va_, page * granularity_, granularity_) == DeviceStatus::kOk);
  pages_[page] = kUnmapped;
  --mapped_pages_;
  return handle;
}

}  // namespace stalloc
