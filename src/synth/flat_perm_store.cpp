#include "synth/flat_perm_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace qsyn::synth {

FlatPermStore::FlatPermStore(std::size_t width)
    : FlatPermStore(width, /*label_range=*/width) {}

FlatPermStore::FlatPermStore(std::size_t width, std::size_t label_range)
    : width_(width),
      label_bytes_(label_range <= 256 ? 1 : 2),
      stride_(width * label_bytes_) {
  QSYN_CHECK(width >= 1 && width <= 65536, "unsupported permutation width");
  QSYN_CHECK(label_range >= width && label_range <= 65536,
             "label range must cover the row width");
}

FlatPermStore::FlatPermStore(std::size_t width,
                             std::shared_ptr<const io::MmapFile> file,
                             std::size_t offset, std::size_t bytes)
    : FlatPermStore(width) {
  QSYN_CHECK(file != nullptr, "a mapped FlatPermStore requires a file");
  QSYN_CHECK(offset <= file->size() && bytes <= file->size() - offset,
             "FlatPermStore window exceeds the mapped file");
  QSYN_CHECK(bytes % stride_ == 0,
             "FlatPermStore window holds a fractional row");
  file_ = std::move(file);
  view_data_ = bytes > 0 ? file_->data() + offset : nullptr;
  view_bytes_ = bytes;
}

FlatPermStore::FlatPermStore(const FlatPermStore& other)
    : width_(other.width_),
      label_bytes_(other.label_bytes_),
      stride_(other.stride_),
      bytes_(other.view_data_, other.view_bytes_) {
  sync_view();
}

FlatPermStore& FlatPermStore::operator=(const FlatPermStore& other) {
  if (this == &other) return *this;
  width_ = other.width_;
  label_bytes_ = other.label_bytes_;
  stride_ = other.stride_;
  bytes_.clear();
  bytes_.append(other.view_data_, other.view_bytes_);
  file_.reset();
  sync_view();
  return *this;
}

// A moved vector keeps its buffer and a moved shared_ptr its mapping, so the
// cached view carries over as is.
FlatPermStore::FlatPermStore(FlatPermStore&& other) noexcept
    : width_(other.width_),
      label_bytes_(other.label_bytes_),
      stride_(other.stride_),
      bytes_(std::move(other.bytes_)),
      file_(std::move(other.file_)),
      view_data_(other.view_data_),
      view_bytes_(other.view_bytes_) {
  other.bytes_.clear();
  other.sync_view();
}

FlatPermStore& FlatPermStore::operator=(FlatPermStore&& other) noexcept {
  if (this == &other) return *this;
  width_ = other.width_;
  label_bytes_ = other.label_bytes_;
  stride_ = other.stride_;
  bytes_ = std::move(other.bytes_);
  file_ = std::move(other.file_);
  view_data_ = other.view_data_;
  view_bytes_ = other.view_bytes_;
  other.bytes_.clear();
  other.file_.reset();
  other.sync_view();
  return *this;
}

FlatPermStore::~FlatPermStore() = default;

void FlatPermStore::sync_view() {
  view_data_ = bytes_.data();
  view_bytes_ = bytes_.size();
}

void FlatPermStore::ensure_writable() const {
  QSYN_CHECK(!read_only(), "FlatPermStore is read-only (a mapped window)");
}

void FlatPermStore::commit_bytes(simd::RowBytes bytes) {
  ensure_writable();
  bytes_ = std::move(bytes);
  sync_view();
}

const std::uint8_t* FlatPermStore::row(std::size_t i) const {
  QSYN_CHECK(i < size(), "FlatPermStore row out of range");
  return view_data_ + i * stride_;
}

void FlatPermStore::push_back(const std::uint8_t* row_bytes) {
  ensure_writable();
  bytes_.append(row_bytes, stride_);
  sync_view();
}

void FlatPermStore::push_back(const perm::Permutation& p) {
  QSYN_CHECK(p.degree() == width_, "permutation degree mismatch");
  push_back(encode_row(p).data());
}

std::vector<std::uint8_t> FlatPermStore::encode_row(
    const perm::Permutation& p) const {
  QSYN_CHECK(p.degree() == width_, "permutation degree mismatch");
  std::vector<std::uint8_t> row(stride_);
  for (std::size_t s = 0; s < width_; ++s) {
    write_label(row.data(), s, label_bytes_,
                p.apply(static_cast<std::uint32_t>(s + 1)) - 1);
  }
  return row;
}

perm::Permutation FlatPermStore::permutation(std::size_t i) const {
  const std::uint8_t* r = row(i);
  std::vector<std::uint32_t> images(width_);
  for (std::size_t s = 0; s < width_; ++s) {
    images[s] = read_label(r, s, label_bytes_) + 1u;
  }
  return perm::Permutation::from_images(std::move(images));
}

void FlatPermStore::sort_unique() {
  ensure_writable();
  const std::size_t n = size();
  if (n <= 1) return;
  // LSD radix over the big-endian rows (common/simd/kernels.h).
  simd::RowBytes sorted;
  simd::sort_unique_rows(view_data_, n, stride_, sorted);
  commit_bytes(std::move(sorted));
}

void FlatPermStore::subtract_sorted(const FlatPermStore& other) {
  QSYN_CHECK(width_ == other.width_, "width mismatch");
  ensure_writable();
  if (empty() || other.empty()) return;
  simd::RowBytes kept;
  simd::subtract_sorted_rows(view_data_, size(), other.view_data_,
                             other.size(), stride_, kept);
  commit_bytes(std::move(kept));
}

void FlatPermStore::merge_sorted(const FlatPermStore& other) {
  QSYN_CHECK(width_ == other.width_, "width mismatch");
  ensure_writable();
  if (other.empty()) return;
  simd::RowBytes merged;
  simd::merge_sorted_rows(view_data_, size(), other.view_data_, other.size(),
                          stride_, merged);
  commit_bytes(std::move(merged));
}

bool FlatPermStore::contains_sorted(const std::uint8_t* row_bytes) const {
  const std::size_t w = stride_;
  std::size_t lo = 0;
  std::size_t hi = size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int cmp = std::memcmp(row(mid), row_bytes, w);
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

void FlatPermStore::assign_rows(simd::RowBytes bytes) {
  QSYN_CHECK(bytes.size() % stride_ == 0,
             "assign_rows requires a whole number of rows");
  commit_bytes(std::move(bytes));
}

void FlatPermStore::clear_keep_capacity() {
  if (read_only()) {
    clear();
    return;
  }
  bytes_.clear();
  sync_view();
}

void FlatPermStore::clear() {
  bytes_ = simd::RowBytes();
  file_.reset();
  sync_view();
}

std::size_t FlatPermStore::memory_bytes() const { return bytes_.capacity(); }

std::size_t FlatPermStore::disk_bytes() const {
  return read_only() ? view_bytes_ : 0;
}

void FlatPermStore::reserve_rows(std::size_t rows) {
  ensure_writable();
  bytes_.reserve(rows * stride_);
  sync_view();
}

}  // namespace qsyn::synth
