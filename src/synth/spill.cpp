#include "synth/spill.h"

#include <utility>
#include <vector>

#include "common/error.h"
#include "synth/catalog.h"

namespace qsyn::synth {

namespace {

[[noreturn]] void malformed(const std::string& path, const std::string& what) {
  throw CatalogError("invalid sealed run '" + path + "': " + what);
}

}  // namespace

std::shared_ptr<const SealedRun> SealedRun::write(const std::string& path,
                                                  const FlatPermStore& rows,
                                                  bool keep_file) {
  QSYN_CHECK(!rows.empty(), "SealedRun::write: refusing to seal an empty run");
  const std::size_t stride = rows.row_stride();
  const std::size_t count = rows.size();

  // The shared prefix of a sorted range is the longest common prefix of its
  // first and last row — every row in between sorts inside that bracket.
  const std::uint8_t* first = rows.row(0);
  const std::uint8_t* last = rows.row(count - 1);
  std::size_t prefix = 0;
  while (prefix < stride && first[prefix] == last[prefix]) ++prefix;

  std::vector<std::uint8_t> header;
  header.reserve(spill::kRunHeaderBytes + prefix);
  header.insert(header.end(), spill::kRunMagic, spill::kRunMagic + 8);
  catalog::put_u32(header, spill::kRunVersion);
  catalog::put_u32(header, static_cast<std::uint32_t>(rows.width()));
  catalog::put_u32(header, static_cast<std::uint32_t>(rows.label_bytes()));
  catalog::put_u32(header, static_cast<std::uint32_t>(prefix));
  catalog::put_u64(header, count);
  header.insert(header.end(), first, first + prefix);

  io::SpillWriter out(path, keep_file);
  out.append(header.data(), header.size());
  const std::size_t suffix = stride - prefix;
  if (suffix > 0) {
    for (std::size_t i = 0; i < count; ++i) {
      out.append(rows.row(i) + prefix, suffix);
    }
  }
  return std::shared_ptr<const SealedRun>(
      new SealedRun(out.seal(), rows.width()));
}

std::shared_ptr<const SealedRun> SealedRun::open(const std::string& path,
                                                 std::size_t width) {
  return std::shared_ptr<const SealedRun>(
      new SealedRun(io::MmapFile::map(path), width));
}

SealedRun::SealedRun(std::shared_ptr<const io::MmapFile> file,
                     std::size_t width)
    : file_(std::move(file)) {
  const std::string& path = file_->path();
  const std::uint8_t* bytes = file_->data();
  const std::size_t total = file_->size();

  if (total < spill::kRunHeaderBytes) {
    malformed(path, "truncated sealed run: " + std::to_string(total) +
                        " bytes, header needs " +
                        std::to_string(spill::kRunHeaderBytes));
  }
  if (std::memcmp(bytes, spill::kRunMagic, 8) != 0) {
    malformed(path, "bad magic (not a qsyn sealed run)");
  }
  const std::uint32_t version = catalog::get_u32(bytes + 8);
  if (version != spill::kRunVersion) {
    malformed(path, "unsupported run version " + std::to_string(version) +
                        " (expected " + std::to_string(spill::kRunVersion) +
                        ")");
  }
  width_ = catalog::get_u32(bytes + 12);
  if (width_ != width) {
    malformed(path, "run built for width " + std::to_string(width_) +
                        ", store expects width " + std::to_string(width));
  }
  const std::size_t expect_label_bytes = width_ <= 256 ? 1 : 2;
  const std::uint32_t label_bytes = catalog::get_u32(bytes + 16);
  if (label_bytes != expect_label_bytes) {
    malformed(path, "label_bytes " + std::to_string(label_bytes) +
                        " does not match width " + std::to_string(width_));
  }
  stride_ = width_ * expect_label_bytes;
  prefix_bytes_ = catalog::get_u32(bytes + 20);
  if (prefix_bytes_ > stride_) {
    malformed(path, "prefix_bytes " + std::to_string(prefix_bytes_) +
                        " exceeds row stride " + std::to_string(stride_));
  }
  const std::uint64_t rows = catalog::get_u64(bytes + 24);
  suffix_stride_ = stride_ - prefix_bytes_;
  // Two distinct sorted rows differ inside the stride, so the shared prefix
  // is the whole stride exactly when the run holds a single row.
  if (rows == 0 || (rows == 1) != (suffix_stride_ == 0)) {
    malformed(path, "row count " + std::to_string(rows) +
                        " contradicts prefix_bytes " +
                        std::to_string(prefix_bytes_) + " of stride " +
                        std::to_string(stride_));
  }

  // Count the rows that fit instead of multiplying out the layout size: a
  // forged row count must not wrap that product around 2^64.
  const std::size_t head = spill::kRunHeaderBytes + prefix_bytes_;
  std::uint64_t fit = 0;
  if (total >= head) {
    fit = suffix_stride_ == 0 ? 1 : (total - head) / suffix_stride_;
  }
  if (rows > fit) {
    malformed(path, "truncated sealed run: " + std::to_string(total) +
                        " bytes, layout needs " + std::to_string(rows) +
                        " rows of " + std::to_string(suffix_stride_) +
                        " suffix bytes after " + std::to_string(head));
  }
  rows_ = static_cast<std::size_t>(rows);
  const std::size_t expected = head + rows_ * suffix_stride_;
  if (total > expected) {
    malformed(path, std::to_string(total - expected) +
                        " trailing bytes after the last row");
  }

  prefix_ = bytes + spill::kRunHeaderBytes;
  suffix_base_ = prefix_ + prefix_bytes_;
}

void SealedRun::subtract_from(FlatPermStore& store) const {
  QSYN_CHECK(store.row_stride() == stride_,
             "SealedRun::subtract_from: row stride mismatch");
  if (store.empty() || rows_ == 0) return;

  const std::uint8_t* data = store.data();
  const std::size_t n = store.size();
  simd::RowBytes kept;
  kept.reserve(store.size_bytes());

  std::size_t i = 0;  // store cursor
  std::size_t j = 0;  // run cursor
  while (i < n) {
    if (j == rows_) {
      kept.append(data + i * stride_, (n - i) * stride_);
      break;
    }
    const int c = compare(data + i * stride_, j);
    if (c < 0) {
      kept.append(data + i * stride_, stride_);
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      ++i;  // present in the run: drop
      ++j;
    }
  }
  store.assign_rows(std::move(kept));
}

}  // namespace qsyn::synth
