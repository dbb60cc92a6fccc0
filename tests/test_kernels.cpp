// Model-checked suites for the kernels layer (common/simd/kernels.h): the
// radix sort_unique and the memcmp subtract/merge against a std::set model
// across the real row shapes (widths 8/38/176/782, one- and two-byte
// labels), the spilled ShardedPermStore and FlatPermStore closure-shaped
// sweeps against the set of every row pushed, the GEMM-batched fused path
// against per-job basis application, and the strict env parser behind the
// QSYN_* knobs.
//
// These run under the `kernels` ctest label in the sanitizer presets (asan
// whole-binary, tsan via the label filter) on top of the per-TEST `unit`
// registration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "la/matrix.h"
#include "mvl/domain.h"
#include "sim/batch.h"
#include "sim/cross_check.h"
#include "sim/fused.h"
#include "sim/state_vector.h"
#include "synth/flat_perm_store.h"
#include "synth/sharded_perm_store.h"

namespace qsyn {
namespace {

using synth::FlatPermStore;
using synth::ShardedPermStore;
using synth::SpillOptions;

using Row = std::vector<std::uint8_t>;
using Bytes = std::vector<std::uint8_t>;

/// The FMCF row shapes: label widths 8/38/176 pack one byte per label,
/// width 782 packs two (stride 1564) — see FlatPermStore.
const std::size_t kStrides[] = {8, 38, 176, 782, 1564};

/// `count` rows whose first `shared` bytes are a fixed prefix and whose
/// remaining bytes draw from a small alphabet — dials duplicate density and
/// the radix key window position at once.
Bytes rows_with_prefix(Rng& rng, std::size_t count, std::size_t stride,
                       std::size_t shared, std::uint32_t alphabet) {
  Bytes rows(count * stride);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t b = 0; b < stride; ++b) {
      rows[i * stride + b] =
          b < shared ? static_cast<std::uint8_t>(0xA0 + b % 8)
                     : static_cast<std::uint8_t>(rng.below(alphabet));
    }
  }
  return rows;
}

std::set<Row> row_set(const Bytes& rows, std::size_t stride) {
  std::set<Row> out;
  for (std::size_t at = 0; at < rows.size(); at += stride) {
    out.insert(Row(rows.begin() + at, rows.begin() + at + stride));
  }
  return out;
}

Bytes bytes_of(const simd::RowBytes& buffer) {
  return Bytes(buffer.data(), buffer.data() + buffer.size());
}

Bytes canonical_bytes(const std::set<Row>& model) {
  Bytes out;
  for (const Row& row : model) out.insert(out.end(), row.begin(), row.end());
  return out;
}

// --- sort_unique ------------------------------------------------------------

TEST(KernelSortUnique, RadixMatchesScalarAndModelRandomized) {
  Rng rng(902);
  for (const std::size_t stride : kStrides) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t count = 1 + rng.below(300);
      // Shared prefixes up to and past the 8-byte key window, alphabets down
      // to 2 so duplicate and tie groups are dense.
      const std::size_t shared =
          std::min<std::size_t>(stride - 1, rng.below(20));
      const std::uint32_t alphabet = 2 + rng.below(250);
      const Bytes rows = rows_with_prefix(rng, count, stride, shared, alphabet);

      simd::RowBytes sorted;
      simd::sort_unique_rows(rows.data(), count, stride, sorted);
      EXPECT_EQ(bytes_of(sorted), canonical_bytes(row_set(rows, stride)));
    }
  }
}

TEST(KernelSortUnique, AdversarialTieShapes) {
  // All-identical rows, rows identical through the key window, and
  // single-row inputs — the tie-break and dedup corner cases.
  for (const std::size_t stride : {std::size_t(8), std::size_t(38)}) {
    Bytes all_same(20 * stride, 0x5A);
    simd::RowBytes out;
    simd::sort_unique_rows(all_same.data(), 20, stride, out);
    EXPECT_EQ(bytes_of(out),
              Bytes(all_same.begin(), all_same.begin() + stride));

    Rng rng(903);
    // Identical first min(stride-1, 12) bytes, differing only in the tail —
    // the key window alone cannot discriminate these.
    const std::size_t shared = std::min<std::size_t>(stride - 1, 12);
    const Bytes rows = rows_with_prefix(rng, 64, stride, shared, 2);
    simd::sort_unique_rows(rows.data(), 64, stride, out);
    EXPECT_EQ(bytes_of(out), canonical_bytes(row_set(rows, stride)));

    simd::sort_unique_rows(rows.data(), 1, stride, out);
    EXPECT_EQ(bytes_of(out), Bytes(rows.begin(), rows.begin() + stride));
    simd::sort_unique_rows(rows.data(), 0, stride, out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(KernelSortUnique, MultiRangeMatchesSingleBuffer) {
  // The closure sorts a shard's rows straight out of every worker's buffer:
  // any cut of the rows into ranges, empty ones included, must sort to the
  // bytes of the concatenation. Duplicates are dense within ranges and
  // copied across them.
  Rng rng(904);
  for (const std::size_t stride : kStrides) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t count = 2 + rng.below(300);
      const std::size_t shared =
          std::min<std::size_t>(stride - 1, rng.below(20));
      const std::uint32_t alphabet = 2 + rng.below(8);
      Bytes rows = rows_with_prefix(rng, count, stride, shared, alphabet);
      for (int copy = 0; copy < 8; ++copy) {
        const std::size_t from = rng.below(static_cast<std::uint32_t>(count));
        const std::size_t to = rng.below(static_cast<std::uint32_t>(count));
        std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(from * stride),
                    stride,
                    rows.begin() + static_cast<std::ptrdiff_t>(to * stride));
      }
      simd::RowBytes single;
      simd::sort_unique_rows(rows.data(), count, stride, single);

      // Cut points drawn with repeats, so some ranges are empty; an empty
      // range leads and one trails.
      std::vector<std::size_t> cuts = {0, 0, count, count};
      for (int c = 0; c < 4; ++c) {
        cuts.push_back(rng.below(static_cast<std::uint32_t>(count + 1)));
      }
      std::sort(cuts.begin(), cuts.end());
      std::vector<simd::RowRange> ranges;
      for (std::size_t c = 1; c < cuts.size(); ++c) {
        const std::size_t in_range = cuts[c] - cuts[c - 1];
        ranges.push_back({rows.data() + cuts[c - 1] * stride, in_range});
      }
      simd::RowBytes multi;
      simd::sort_unique_rows(ranges.data(), ranges.size(), stride, multi);
      EXPECT_EQ(bytes_of(multi), bytes_of(single)) << "stride " << stride;

      // One range is the single-buffer call.
      const simd::RowRange whole{rows.data(), count};
      simd::sort_unique_rows(&whole, 1, stride, multi);
      EXPECT_EQ(bytes_of(multi), bytes_of(single));
    }
  }

  // Ranges holding only empty or single rows, and no ranges at all.
  const Bytes row(38, 0x11);
  const std::vector<simd::RowRange> lone = {
      {row.data(), 0}, {row.data(), 1}, {row.data(), 0}};
  simd::RowBytes out;
  simd::sort_unique_rows(lone.data(), lone.size(), 38, out);
  EXPECT_EQ(bytes_of(out), row);
  const std::vector<simd::RowRange> twice = {{row.data(), 1}, {row.data(), 1}};
  simd::sort_unique_rows(twice.data(), twice.size(), 38, out);
  EXPECT_EQ(bytes_of(out), row);
  simd::sort_unique_rows(lone.data(), 0, 38, out);
  EXPECT_TRUE(out.empty());
}

// --- subtract / merge -------------------------------------------------------

TEST(KernelSetAlgebra, SubtractAndMergeMatchModelAndScalar) {
  Rng rng(904);
  for (const std::size_t stride : kStrides) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint32_t alphabet = 2 + rng.below(30);
      const Bytes raw_a =
          rows_with_prefix(rng, 1 + rng.below(200), stride, 2, alphabet);
      const Bytes raw_b =
          rows_with_prefix(rng, 1 + rng.below(200), stride, 2, alphabet);
      simd::RowBytes a;
      simd::RowBytes b;
      simd::sort_unique_rows(raw_a.data(), raw_a.size() / stride, stride, a);
      simd::sort_unique_rows(raw_b.data(), raw_b.size() / stride, stride, b);
      const std::set<Row> model_a = row_set(bytes_of(a), stride);
      const std::set<Row> model_b = row_set(bytes_of(b), stride);

      std::set<Row> difference;
      std::set<Row> united = model_b;
      for (const Row& row : model_a) {
        if (model_b.count(row) == 0) difference.insert(row);
        united.insert(row);
      }

      simd::RowBytes out;
      simd::subtract_sorted_rows(a.data(), a.size() / stride, b.data(),
                                 b.size() / stride, stride, out);
      EXPECT_EQ(bytes_of(out), canonical_bytes(difference));

      simd::merge_sorted_rows(a.data(), a.size() / stride, b.data(),
                              b.size() / stride, stride, out);
      EXPECT_EQ(bytes_of(out), canonical_bytes(united));
    }
  }
}

TEST(KernelSetAlgebra, SubtractMatchesSetDifferenceOnSkewedSizes) {
  // The galloping skip over b against std::set_difference: a chunk much
  // shorter than the run it is subtracted from (long b runs between a rows),
  // the reverse, empty sides, and a == b. Rows share a prefix and draw the
  // rest from a small alphabet, so comparisons run deep into the row, and a
  // share of a's rows is drawn from b so the drop branch fires.
  Rng rng(2112);
  for (const std::size_t stride : {std::size_t(38), std::size_t(1564)}) {
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {3, 4000}, {40, 4000}, {4000, 3}, {4000, 40}, {0, 500},
        {500, 0},  {0, 0},     {1, 1},    {700, 700}};
    for (const auto& [a_rows, b_rows] : shapes) {
      for (int trial = 0; trial < 3; ++trial) {
        const std::uint32_t alphabet = 2 + rng.below(6);
        const std::size_t shared = rng.below(stride / 2);
        simd::RowBytes b;
        const Bytes raw_b =
            rows_with_prefix(rng, b_rows, stride, shared, alphabet);
        simd::sort_unique_rows(raw_b.data(), b_rows, stride, b);
        const std::size_t b_count = b.size() / stride;
        Bytes raw_a = rows_with_prefix(rng, a_rows, stride, shared, alphabet);
        for (std::size_t i = 0; i < a_rows && b_count > 0; ++i) {
          if (rng.below(3) != 0) continue;
          const std::uint8_t* from = b.data() + rng.below(b_count) * stride;
          std::copy(from, from + stride, raw_a.begin() + i * stride);
        }
        simd::RowBytes a;
        simd::sort_unique_rows(raw_a.data(), a_rows, stride, a);
        const std::size_t a_count = a.size() / stride;

        const auto rows_of = [stride](const simd::RowBytes& bytes) {
          std::vector<Row> rows;
          for (std::size_t at = 0; at < bytes.size(); at += stride) {
            rows.emplace_back(bytes.data() + at, bytes.data() + at + stride);
          }
          return rows;
        };
        const std::vector<Row> rows_a = rows_of(a);
        const std::vector<Row> rows_b = rows_of(b);
        std::vector<Row> want;
        std::set_difference(rows_a.begin(), rows_a.end(), rows_b.begin(),
                            rows_b.end(), std::back_inserter(want));

        simd::RowBytes out;
        simd::subtract_sorted_rows(a.data(), a_count, b.data(), b_count,
                                   stride, out);
        EXPECT_EQ(rows_of(out), want)
            << "stride " << stride << ", |a| " << a_count << ", |b| "
            << b_count;
        simd::subtract_sorted_rows(a.data(), a_count, a.data(), a_count,
                                   stride, out);
        EXPECT_TRUE(out.empty()) << "a \\ a, stride " << stride;
      }
    }
  }
}

// --- FlatPermStore / spilled merges ----------------------------------------

Row random_label_row(Rng& rng, std::size_t width) {
  Row row(width);
  for (std::size_t i = 0; i < width; ++i) {
    row[i] = static_cast<std::uint8_t>(
        rng.below(static_cast<std::uint32_t>(width)));
  }
  return row;
}

/// Runs a closure-shaped op sequence (sort chunks, subtract against the
/// store, merge survivors) through a spilled ShardedPermStore and returns
/// the drained bytes; `pushed` collects every row fed in.
Bytes spilled_drain_bytes(std::uint32_t seed, std::set<Row>& pushed) {
  Rng rng(seed);
  const std::size_t width = 4 + rng.below(8);
  const std::size_t shards = 1 + rng.below(4);
  ShardedPermStore store(
      width, shards,
      SpillOptions{shards * (128 + rng.below(512)), ::testing::TempDir()});
  for (int round = 0; round < 6; ++round) {
    std::vector<FlatPermStore> chunks(shards, FlatPermStore(width));
    const std::size_t count = 1 + rng.below(400);
    for (std::size_t i = 0; i < count; ++i) {
      const Row row = random_label_row(rng, width);
      chunks[store.shard_of(row.data())].push_back(row.data());
      pushed.insert(row);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (chunks[s].empty()) continue;
      chunks[s].sort_unique();
      store.subtract_shard_from(s, chunks[s]);
      store.merge_into_shard(s, chunks[s]);
    }
  }
  EXPECT_TRUE(store.spilled());
  const FlatPermStore drained = store.drain_sorted();
  return Bytes(drained.data(), drained.data() + drained.size_bytes());
}

TEST(KernelSpillMerge, SpilledDrainByteIdenticalToModel) {
  for (std::uint32_t seed = 9050; seed < 9056; ++seed) {
    std::set<Row> pushed;
    const Bytes drained = spilled_drain_bytes(seed, pushed);
    EXPECT_EQ(drained, canonical_bytes(pushed)) << "seed " << seed;
  }
}

TEST(KernelStoreAlgebra, FlatStoreByteIdenticalToModel) {
  for (std::uint32_t seed = 9060; seed < 9066; ++seed) {
    Rng rng(seed);
    const std::size_t width = 4 + rng.below(8);
    std::set<Row> pushed;
    FlatPermStore seen(width);
    for (int round = 0; round < 5; ++round) {
      FlatPermStore chunk(width);
      for (int i = 0; i < 200; ++i) {
        const Row row = random_label_row(rng, width);
        chunk.push_back(row.data());
        pushed.insert(row);
      }
      chunk.sort_unique();
      chunk.subtract_sorted(seen);
      seen.merge_sorted(chunk);
    }
    EXPECT_EQ(Bytes(seen.data(), seen.data() + seen.size_bytes()),
              canonical_bytes(pushed))
        << "seed " << seed;
  }
}

// --- batched GEMM -----------------------------------------------------------

TEST(KernelGemm, MatchesPerColumnReference) {
  Rng rng(905);
  for (const std::size_t dim : {std::size_t(2), std::size_t(8),
                                std::size_t(16)}) {
    for (const std::size_t batch :
         {std::size_t(1), std::size_t(3), std::size_t(17)}) {
      std::vector<simd::Complex> a(dim * dim);
      std::vector<simd::Complex> b(dim * batch);
      for (auto& entry : a) {
        // Sparse like block unitaries: most entries exactly zero.
        entry = rng.below(4) == 0
                    ? simd::Complex(rng.uniform() - 0.5, rng.uniform() - 0.5)
                    : simd::Complex(0.0, 0.0);
      }
      for (auto& entry : b) {
        entry = simd::Complex(rng.uniform() - 0.5, rng.uniform() - 0.5);
      }
      std::vector<simd::Complex> c(dim * batch);
      simd::gemm(a.data(), b.data(), c.data(), dim, dim, batch);
      for (std::size_t j = 0; j < batch; ++j) {
        for (std::size_t i = 0; i < dim; ++i) {
          simd::Complex expected(0.0, 0.0);
          for (std::size_t p = 0; p < dim; ++p) {
            expected += a[i * dim + p] * b[p * batch + j];
          }
          EXPECT_NEAR(std::abs(c[i * batch + j] - expected), 0.0, 1e-12)
              << "dim " << dim << " batch " << batch;
        }
      }
    }
  }
}

gates::Cascade random_reasonable_cascade(Rng& rng,
                                         const gates::GateLibrary& library,
                                         std::size_t length) {
  gates::Cascade c(library.domain().wires());
  for (std::size_t i = 0; i < length; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      gates::Cascade extended = c;
      extended.append(library.gate(rng.below(
          static_cast<std::uint32_t>(library.size()))));
      if (extended.is_reasonable(library.domain())) {
        c = std::move(extended);
        break;
      }
    }
  }
  return c;
}

TEST(GemmBatch, ColumnsMatchPerBasisApplication) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  Rng rng(906);
  sim::UnitaryCache cache;
  for (int trial = 0; trial < 12; ++trial) {
    const gates::Cascade cascade =
        random_reasonable_cascade(rng, library, 2 + rng.below(14));
    const sim::FusedCascade fused(cascade, 1 + rng.below(6), cache);
    const std::size_t dim = std::size_t(1) << cascade.wires();
    std::vector<std::uint32_t> bits;
    for (std::uint32_t b = 0; b < dim; ++b) bits.push_back(b);
    bits.push_back(0);  // duplicated inputs are legal batch members
    const std::vector<sim::StateVector> batched =
        fused.apply_to_basis_columns(bits);
    ASSERT_EQ(batched.size(), bits.size());
    for (std::size_t j = 0; j < bits.size(); ++j) {
      const sim::StateVector expected = fused.apply_to_basis(bits[j]);
      // Dyadic amplitudes: the GEMM reorder is exact, not just close.
      EXPECT_EQ(batched[j].distance_to(expected), 0.0)
          << "trial " << trial << " input " << bits[j];
    }
  }
}

TEST(GemmBatch, BatchSimulatorBitIdenticalWithAndWithoutGemm) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  Rng rng(907);
  std::vector<gates::Cascade> cascades;
  for (int i = 0; i < 10; ++i) {
    cascades.push_back(
        random_reasonable_cascade(rng, library, 3 + rng.below(12)));
  }
  std::vector<sim::SimJob> jobs;
  for (const gates::Cascade& c : cascades) {
    for (std::uint32_t bits = 0; bits < (1u << c.wires()); ++bits) {
      jobs.push_back(sim::SimJob{&c, bits});
    }
  }

  // The batched run against each job's fused cascade applied on its own —
  // the per-column computation the GEMM path replaces. Dyadic amplitudes:
  // bit for bit, not just close.
  sim::SimOptions gemm_options;
  gemm_options.fuse_block = 4;
  gemm_options.threads = 2;
  sim::BatchSimulator gemm_sim(gemm_options);
  const std::vector<la::Vector> with_gemm = gemm_sim.run(jobs);
  ASSERT_EQ(with_gemm.size(), jobs.size());
  sim::UnitaryCache cache;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sim::FusedCascade per_job(*jobs[i].cascade, 4, cache);
    const la::Vector without =
        per_job.apply_to_basis(jobs[i].input_bits).amplitudes();
    ASSERT_EQ(with_gemm[i].size(), without.size());
    for (std::size_t k = 0; k < without.size(); ++k) {
      EXPECT_EQ(with_gemm[i][k], without[k]) << "job " << i;
    }
  }

  // The soundness sweep agrees verdict for verdict with the gate-at-a-time
  // oracle.
  std::vector<const gates::Cascade*> pointers;
  std::vector<char> reference_verdicts;
  for (const gates::Cascade& c : cascades) {
    pointers.push_back(&c);
    reference_verdicts.push_back(
        sim::mv_model_matches_hilbert_reference(c, domain, 1e-9) ? 1 : 0);
  }
  EXPECT_EQ(gemm_sim.check_mv_model(pointers, domain, 1e-9),
            reference_verdicts);
}

// --- strict env parsing -----------------------------------------------------

#ifndef _WIN32
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(ParseEnvSizeT, StrictWholeValueParsing) {
  EnvGuard guard("QSYN_TEST_PARSE");
  reset_env_warnings_for_testing();

  ::unsetenv("QSYN_TEST_PARSE");
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  ::setenv("QSYN_TEST_PARSE", "", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);

  ::setenv("QSYN_TEST_PARSE", "42", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), 42u);
  ::setenv("QSYN_TEST_PARSE", "1", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), 1u);
  ::setenv("QSYN_TEST_PARSE", "100", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), 100u);

  // The strtoul bug class: trailing garbage must not half-apply.
  ::setenv("QSYN_TEST_PARSE", "8abc", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  ::setenv("QSYN_TEST_PARSE", " 8", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  ::setenv("QSYN_TEST_PARSE", "-3", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  ::setenv("QSYN_TEST_PARSE", "0x10", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);

  // Out of range, including values that would overflow size_t.
  ::setenv("QSYN_TEST_PARSE", "0", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  ::setenv("QSYN_TEST_PARSE", "101", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  ::setenv("QSYN_TEST_PARSE", "99999999999999999999999999", 1);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 1, 100), std::nullopt);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_PARSE", 0, std::size_t(-1)),
            std::nullopt);
}

/// The reference reading of `text` in [lo, hi]: strtoull in base 10, taken
/// only when it consumes the whole string without overflow and the string
/// starts with a digit (strtoull itself skips spaces and signs).
std::optional<std::size_t> strtoull_reference(const std::string& text,
                                              std::size_t lo, std::size_t hi) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0' || value > SIZE_MAX) {
    return std::nullopt;
  }
  const auto v = static_cast<std::size_t>(value);
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

TEST(ParseEnvSizeT, MutantsMatchAStrtoullReference) {
  // A seeded mutation loop over valid and boundary values: every mutant
  // must read as nullopt exactly when the reference rejects it, and as the
  // reference's value otherwise.
  EnvGuard guard("QSYN_TEST_FUZZ");
  const std::size_t max = SIZE_MAX;
  const std::vector<std::string> seeds = {
      "0", "1", "7", "42", "100", "101", "007", "4096", "65536",
      std::to_string(max), std::to_string(max - 1),
      "18446744073709551616", "99999999999999999999", "1844674407370955161",
      "00000000000000000000018446744073709551615"};
  const std::string alphabet = "0123456789 +-x\tae.,_9";
  Rng rng(3301);
  ::testing::internal::CaptureStderr();  // one warning per name; keep quiet
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int it = 0; it < 20000; ++it) {
    std::string text = seeds[rng.below(seeds.size())];
    const std::uint64_t steps = rng.below(4);
    for (std::uint64_t step = 0; step < steps; ++step) {
      const char c = alphabet[rng.below(alphabet.size())];
      const std::size_t at = rng.below(text.size() + 1);
      switch (rng.below(5)) {
        case 0:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        case 1:
          if (at < text.size()) text.erase(at, 1);
          break;
        case 2:
          if (at < text.size()) text[at] = c;
          break;
        case 3:
          text += text.substr(0, rng.below(text.size() + 1));
          break;
        default:
          text.insert(0, std::string(rng.below(3), '0'));
          break;
      }
    }
    const std::size_t bounds[] = {0, 1, 7, 42, 100, 4096, max - 1, max};
    std::size_t lo = bounds[rng.below(8)];
    std::size_t hi = bounds[rng.below(8)];
    if (lo > hi) std::swap(lo, hi);
    if (const auto near = strtoull_reference(text, 0, max);
        near.has_value() && rng.below(2) == 0) {
      // Bounds at the value itself and one off it.
      lo = *near - (*near > 0 && rng.below(2) == 0 ? 1 : 0);
      hi = *near + (*near < max && rng.below(2) == 0 ? 1 : 0);
      if (rng.below(4) == 0) lo = *near + (*near < max ? 1 : 0);
      if (lo > hi) hi = lo;
    }
    ::setenv("QSYN_TEST_FUZZ", text.c_str(), 1);
    const std::optional<std::size_t> got =
        parse_env_size_t("QSYN_TEST_FUZZ", lo, hi);
    const std::optional<std::size_t> want = strtoull_reference(text, lo, hi);
    ASSERT_EQ(got, want) << "'" << text << "' in [" << lo << ", " << hi
                         << "]";
    ++(got.has_value() ? accepted : rejected);
  }
  (void)::testing::internal::GetCapturedStderr();
  reset_env_warnings_for_testing();
  // Both outcomes are reached often.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 2000u);
}

TEST(ParseEnvSizeT, MalformedValueWarnsOnce) {
  EnvGuard guard("QSYN_TEST_WARN");
  reset_env_warnings_for_testing();
  ::setenv("QSYN_TEST_WARN", "12junk", 1);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_WARN", 1, 100), std::nullopt);
  EXPECT_EQ(parse_env_size_t("QSYN_TEST_WARN", 1, 100), std::nullopt);
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find("QSYN_TEST_WARN"), std::string::npos);
  EXPECT_NE(warnings.find("12junk"), std::string::npos);
  // Once per name, no matter how many reads.
  EXPECT_EQ(warnings.find("QSYN_TEST_WARN"),
            warnings.rfind("QSYN_TEST_WARN"));
  reset_env_warnings_for_testing();
}

TEST(ParseEnvSizeT, ThreadKnobRejectsTrailingGarbage) {
  // The user-facing regression: QSYN_THREADS=8abc must not run 8 workers.
  EnvGuard threads_guard("QSYN_THREADS");
  reset_env_warnings_for_testing();

  ::setenv("QSYN_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ::setenv("QSYN_THREADS", "8abc", 1);
  EXPECT_NE(ThreadPool::default_thread_count(), 8u);
  reset_env_warnings_for_testing();
}
#endif  // !_WIN32

}  // namespace
}  // namespace qsyn
