#include "common/simd/kernels.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace qsyn::simd {

// --- RowBytes ---------------------------------------------------------------

// new[] of a trivial type default-initializes: the bytes are not written.
RowBytes::RowBytes(std::size_t size)
    : data_(size > 0 ? new std::uint8_t[size] : nullptr),
      size_(size),
      capacity_(size) {}

RowBytes::RowBytes(const std::uint8_t* bytes, std::size_t size)
    : RowBytes(size) {
  if (size > 0) std::memcpy(data_.get(), bytes, size);
}

RowBytes::RowBytes(RowBytes&& other) noexcept
    : data_(std::move(other.data_)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

RowBytes& RowBytes::operator=(RowBytes&& other) noexcept {
  data_ = std::move(other.data_);
  size_ = std::exchange(other.size_, 0);
  capacity_ = std::exchange(other.capacity_, 0);
  return *this;
}

void RowBytes::append(const std::uint8_t* bytes, std::size_t size) {
  if (size == 0) return;
  if (size > capacity_ - size_) {
    reserve(std::max(size_ + size, 2 * capacity_));
  }
  std::memcpy(data_.get() + size_, bytes, size);
  size_ += size;
}

void RowBytes::reserve(std::size_t capacity) {
  if (capacity <= capacity_) return;
  std::unique_ptr<std::uint8_t[]> grown(new std::uint8_t[capacity]);
  if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
  data_ = std::move(grown);
  capacity_ = capacity;
}

// --- sort_unique ------------------------------------------------------------

namespace {

/// Length of the common prefix of `a` and `b`, at most `limit` bytes.
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t limit) {
  std::size_t p = 0;
  while (p + 8 <= limit) {
    std::uint64_t wa;
    std::uint64_t wb;
    std::memcpy(&wa, a + p, 8);
    std::memcpy(&wb, b + p, 8);
    if (wa != wb) {
      // Little-endian load: the lowest differing *byte* is the first one.
      return p + static_cast<std::size_t>(__builtin_ctzll(wa ^ wb)) / 8;
    }
    p += 8;
  }
  while (p < limit && a[p] == b[p]) ++p;
  return p;
}

// A row's 8-byte key window and a pointer to the row: 16 bytes per row
// wherever the row lies, so sorting out of several buffers needs no second
// per-row array.
struct RadixPair {
  std::uint64_t key;
  const std::uint8_t* row;
};
static_assert(sizeof(RadixPair) == 16, "one key and one pointer per row");

}  // namespace

void sort_unique_rows(const std::uint8_t* rows, std::size_t count,
                      std::size_t stride, RowBytes& out) {
  const RowRange range{rows, count};
  sort_unique_rows(&range, 1, stride, out);
}

void sort_unique_rows(const RowRange* ranges, std::size_t range_count,
                      std::size_t stride, RowBytes& out) {
  out.clear();
  std::size_t count = 0;
  const std::uint8_t* first = nullptr;
  for (std::size_t r = 0; r < range_count; ++r) {
    if (first == nullptr && ranges[r].count > 0) first = ranges[r].rows;
    count += ranges[r].count;
  }
  if (count == 0) return;
  if (count == 1) {
    out.append(first, stride);
    return;
  }

  // The key window must start at a true common prefix of every row — the
  // radix order below only sees the window, so any byte before it has to be
  // globally constant. One early-exiting scan against the first row finds
  // it.
  std::size_t lcp = stride;
  for (std::size_t r = 0; r < range_count && lcp > 0; ++r) {
    for (std::size_t i = 0; i < ranges[r].count && lcp > 0; ++i) {
      lcp = common_prefix(first, ranges[r].rows + i * stride, lcp);
    }
  }

  // 8-byte big-endian key window at the first discriminating byte: integer
  // key order == memcmp order of bytes [lcp, lcp + 8).
  const std::size_t window = std::min<std::size_t>(8, stride - lcp);
  std::vector<RadixPair> pairs(count);
  std::vector<RadixPair> scratch(count);
  std::size_t next = 0;
  for (std::size_t r = 0; r < range_count; ++r) {
    for (std::size_t i = 0; i < ranges[r].count; ++i) {
      const std::uint8_t* row = ranges[r].rows + i * stride;
      std::uint64_t key = 0;
      for (std::size_t b = 0; b < window; ++b) {
        key = key << 8 | row[lcp + b];
      }
      key <<= 8 * (8 - window);
      pairs[next++] = RadixPair{key, row};
    }
  }

  // LSD radix over the key: all 8 histograms in one pre-pass, then one
  // stable counting-sort pass per non-degenerate byte (bytes the window
  // does not reach, and high bytes narrowed by the shard prefix, are
  // single-bucket and skipped for free).
  std::uint32_t histogram[8][256] = {};
  for (const RadixPair& pair : pairs) {
    for (std::size_t b = 0; b < 8; ++b) {
      ++histogram[b][(pair.key >> (8 * b)) & 0xFF];
    }
  }
  for (std::size_t b = 0; b < 8; ++b) {
    const std::uint32_t* counts = histogram[b];
    bool degenerate = false;
    for (std::size_t v = 0; v < 256; ++v) {
      if (counts[v] == count) {
        degenerate = true;
        break;
      }
      if (counts[v] != 0) break;
    }
    if (degenerate) continue;
    std::uint32_t offsets[256];
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < 256; ++v) {
      offsets[v] = total;
      total += counts[v];
    }
    for (const RadixPair& pair : pairs) {
      scratch[offsets[(pair.key >> (8 * b)) & 0xFF]++] = pair;
    }
    std::swap(pairs, scratch);
  }
  scratch = std::vector<RadixPair>();  // released before `out` grows

  // Gather in key order. Rows with equal keys agree on bytes [0, lcp + 8);
  // groups are comparison-sorted on the tail in place and deduplicated
  // (duplicates always share a key, so cross-group duplicates cannot
  // exist).
  out.reserve(count * stride);
  const std::size_t tail_offset = lcp + window;
  const std::size_t tail = stride - tail_offset;
  const auto tail_less = [tail_offset, tail](const RadixPair& a,
                                             const RadixPair& b) {
    return std::memcmp(a.row + tail_offset, b.row + tail_offset, tail) < 0;
  };
  std::size_t i = 0;
  while (i < count) {
    std::size_t j = i + 1;
    while (j < count && pairs[j].key == pairs[i].key) ++j;
    if (j == i + 1 || tail == 0) {
      // A lone row, or fully identical rows: keep one.
      out.append(pairs[i].row, stride);
    } else {
      std::sort(pairs.begin() + static_cast<std::ptrdiff_t>(i),
                pairs.begin() + static_cast<std::ptrdiff_t>(j), tail_less);
      const std::uint8_t* prev = nullptr;
      for (std::size_t g = i; g < j; ++g) {
        const std::uint8_t* r = pairs[g].row;
        if (prev != nullptr &&
            std::memcmp(prev + tail_offset, r + tail_offset, tail) == 0) {
          continue;
        }
        out.append(r, stride);
        prev = r;
      }
    }
    i = j;
  }
}

// --- subtract / merge -------------------------------------------------------

// subtract_sorted_rows steps through b one row at a time until this many b
// rows in a row sort below the current a row, then gallops: interleaved
// inputs pay no extra comparisons, and long runs of b cost a logarithm.
constexpr std::size_t kGallopAfter = 8;

void subtract_sorted_rows(const std::uint8_t* a, std::size_t a_count,
                          const std::uint8_t* b, std::size_t b_count,
                          std::size_t stride, RowBytes& out) {
  out.clear();
  if (a_count == 0) return;
  if (b_count == 0) {
    out.append(a, a_count * stride);
    return;
  }
  out.reserve(a_count * stride);
  const auto below = [&](std::size_t jb, const std::uint8_t* row) {
    return std::memcmp(b + jb * stride, row, stride) < 0;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t b_run = 0;  // b rows skipped in a row since the last a row
  while (i < a_count) {
    if (j == b_count) {
      out.append(a + i * stride, (a_count - i) * stride);
      return;
    }
    const std::uint8_t* row = a + i * stride;
    const int cmp = std::memcmp(row, b + j * stride, stride);
    if (cmp < 0) {
      out.append(row, stride);
      ++i;
      b_run = 0;
    } else if (cmp > 0) {
      ++j;
      // A long run of b below a's row: gallop to the first b row not below
      // it, so an a much shorter than b costs |a| log |b|, not |b|.
      if (++b_run < kGallopAfter) continue;
      std::size_t lo = j - 1;  // the last b row known to be below `row`
      std::size_t step = 1;
      while (lo + step < b_count && below(lo + step, row)) {
        lo += step;
        step *= 2;
      }
      std::size_t hi = std::min(b_count, lo + step);
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (below(mid, row)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      j = hi;
      b_run = 0;
    } else {
      ++i;  // drop: present in b
      b_run = 0;
    }
  }
}

void merge_sorted_rows(const std::uint8_t* a, std::size_t a_count,
                       const std::uint8_t* b, std::size_t b_count,
                       std::size_t stride, RowBytes& out) {
  out.clear();
  out.reserve((a_count + b_count) * stride);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a_count && j < b_count) {
    const int cmp = std::memcmp(a + i * stride, b + j * stride, stride);
    if (cmp <= 0) {
      out.append(a + i * stride, stride);
      if (cmp == 0) ++j;  // keep duplicates once
      ++i;
    } else {
      out.append(b + j * stride, stride);
      ++j;
    }
  }
  if (i < a_count) {
    out.append(a + i * stride, (a_count - i) * stride);
  }
  if (j < b_count) {
    out.append(b + j * stride, (b_count - j) * stride);
  }
}

// --- batched complex GEMM ---------------------------------------------------

/// Hand-written k-major kernel: C accumulates one scaled row of B per
/// non-zero A entry, with the complex arithmetic spelled out over the
/// interleaved (re, im) doubles so the inner loop is a straight fma chain
/// the compiler vectorizes (std::complex operator* would route through the
/// NaN-checking __muldc3 helper instead). Block unitaries are mostly zeros
/// (permutation-like with small mixing blocks), so the zero skip removes
/// the bulk of the work exactly.
void gemm(const Complex* a, const Complex* b, Complex* c, std::size_t m,
          std::size_t k, std::size_t n) {
  std::fill(c, c + m * n, Complex(0.0, 0.0));
  const double* bd = reinterpret_cast<const double*>(b);
  double* cd = reinterpret_cast<double*>(c);
  for (std::size_t i = 0; i < m; ++i) {
    const Complex* ai = a + i * k;
    double* ci = cd + 2 * i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const double ar = ai[p].real();
      const double aj = ai[p].imag();
      if (ar == 0.0 && aj == 0.0) continue;
      const double* bp = bd + 2 * p * n;
      for (std::size_t j = 0; j < n; ++j) {
        const double br = bp[2 * j];
        const double bi = bp[2 * j + 1];
        ci[2 * j] += ar * br - aj * bi;
        ci[2 * j + 1] += ar * bi + aj * br;
      }
    }
  }
}

}  // namespace qsyn::simd
