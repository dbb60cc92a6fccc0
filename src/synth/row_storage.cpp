#include "synth/row_storage.h"

#include "common/error.h"

namespace qsyn::synth {

RowStorage::~RowStorage() = default;

std::vector<std::uint8_t>* RowStorage::mutable_bytes() { return nullptr; }

std::size_t RowStorage::disk_bytes() const { return 0; }

MmapRowStorage::MmapRowStorage(std::shared_ptr<const io::MmapFile> file,
                               std::size_t offset, std::size_t bytes)
    : file_(std::move(file)), data_(nullptr), bytes_(bytes) {
  QSYN_CHECK(file_ != nullptr, "MmapRowStorage requires a mapped file");
  QSYN_CHECK(offset <= file_->size() && bytes <= file_->size() - offset,
             "MmapRowStorage window exceeds the mapped file");
  data_ = bytes_ > 0 ? file_->data() + offset : nullptr;
}

}  // namespace qsyn::synth
