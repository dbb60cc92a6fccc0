#include "synth/storage_spec.h"

#include "common/error.h"
#include "common/io/mmap_file.h"

namespace qsyn::synth {

StorageSpec StorageSpec::in_memory() {
  return StorageSpec(Backend::kInMemory, std::string());
}

StorageSpec StorageSpec::mmap_read_only(std::string path) {
  return StorageSpec(Backend::kMmapReadOnly, std::move(path));
}

std::shared_ptr<RowStorage> StorageSpec::make_storage() const {
  switch (backend_) {
    case Backend::kInMemory:
      return std::make_shared<VectorRowStorage>();
    case Backend::kMmapReadOnly: {
      const std::shared_ptr<const io::MmapFile> file = io::MmapFile::map(path_);
      const std::size_t bytes = file->size();
      return std::make_shared<MmapRowStorage>(file, 0, bytes);
    }
  }
  QSYN_CHECK(false, "unreachable: unknown StorageSpec backend");
}

FlatPermStore StorageSpec::make_store(std::size_t width) const {
  return FlatPermStore(width, make_storage());
}

}  // namespace qsyn::synth
