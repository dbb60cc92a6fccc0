// qsyn/synth/catalog.h
//
// The on-disk persistent synthesis catalog: format v2.
//
// A catalog is one completed FMCF closure, serialized so later processes can
// serve locate()/witness() queries without redoing the multi-second sweep —
// percy's serialize-then-synthesize shape (write the expensive enumeration
// once, replay it cheaply and concurrently; see SNIPPETS.md).
//
// v2 stores each level's canonical rows R[k], one per wire-relabeling orbit
// of B[k] (synth/fmcf.h), not B[k] itself: 114,963 rows (4.4 MB) instead of
// 689,402 (26.2 MB) at cb = 7. A reopened enumerator rebuilds each level's
// orbit prefix sums from its reps and answers every query on the same path
// as the closure that saved it. v1 files (full frontiers) are rejected with
// a message to regenerate them: catalogs are derived data.
//
// Every multi-byte integer in the file is big-endian, matching the stores'
// big-endian label rows, so the file is bit-identical across hosts and the
// rep sections can be memory-mapped directly as read-only FlatPermStore
// windows.
// Layout:
//
//   header (kHeaderBytes, fixed):
//     [ 0]  magic      "QSYNCAT\0"
//     [ 8]  u32 version            (kVersion)
//     [12]  u32 endianness tag     (kEndianTag; guards against writers that
//                                   dump raw host-order structs)
//     [16]  u32 wires
//     [20]  u32 width              (domain size; 38 for 3 wires)
//     [24]  u32 binary_count       (2^wires)
//     [28]  u32 label_bytes        (1 or 2; derived from width, stored for
//                                   integrity checking)
//     [32]  u32 gate_count
//     [36]  u32 levels             (levels_done at save time)
//     [40]  u32 flags              (kFlagTrackWitnesses | kFlagUseBannedSets)
//     [44]  u64 domain fingerprint  (PatternDomain::fingerprint)
//     [52]  u64 library fingerprint (GateLibrary::fingerprint)
//     [60]  u64 g_count            (total G entries, identity included)
//
//   level stats: levels x kStatsEntryBytes
//     u32 cost, u64 frontier, u64 g_new, u64 pre_g, u64 seen,
//     u64 seconds (IEEE-754 double bits)
//
//   G index: g_count x kGEntryBytes, ascending by key
//     32-byte GKey (four u64 words, each big-endian), u32 cost,
//     u64 witness row (an orbit-order index into B[cost])
//
//   rep sections: (levels + 1) sections, k = 0..levels
//     u64 row_count, then row_count x (width * label_bytes) raw row bytes of
//     R[k], strictly ascending — exactly the FlatPermStore byte image,
//     mapped read-only on reopen. Without witness tracking only the last
//     section holds rows. A kept R[0] is exactly the identity row.
//
// The file must end exactly after the last rep section; trailing bytes are
// rejected. Readers throw qsyn::CatalogError for any malformed or
// incompatible input (truncation, bad magic/version/endian tag, fingerprint
// mismatch, unsorted G index or rep rows, a rep label outside the domain,
// an R[0] other than the identity, orbit counts that disagree with the
// stats, out-of-range witness rows) — never UB. Every rep label is checked
// before any of them indexes a table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qsyn::synth::catalog {

inline constexpr std::uint8_t kMagic[8] = {'Q', 'S', 'Y', 'N',
                                           'C', 'A', 'T', '\0'};
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::uint32_t kEndianTag = 0x01020304;

inline constexpr std::uint32_t kFlagTrackWitnesses = 1u << 0;
inline constexpr std::uint32_t kFlagUseBannedSets = 1u << 1;

// Header field offsets (bytes from the start of the file). Exposed so the
// corruption regression tests can flip exactly the field they target.
inline constexpr std::size_t kMagicOffset = 0;
inline constexpr std::size_t kVersionOffset = 8;
inline constexpr std::size_t kEndianOffset = 12;
inline constexpr std::size_t kWiresOffset = 16;
inline constexpr std::size_t kWidthOffset = 20;
inline constexpr std::size_t kBinaryCountOffset = 24;
inline constexpr std::size_t kLabelBytesOffset = 28;
inline constexpr std::size_t kGateCountOffset = 32;
inline constexpr std::size_t kLevelsOffset = 36;
inline constexpr std::size_t kFlagsOffset = 40;
inline constexpr std::size_t kDomainFingerprintOffset = 44;
inline constexpr std::size_t kLibraryFingerprintOffset = 52;
inline constexpr std::size_t kGCountOffset = 60;
inline constexpr std::size_t kHeaderBytes = 68;

inline constexpr std::size_t kStatsEntryBytes = 4 + 5 * 8;
inline constexpr std::size_t kGEntryBytes = 32 + 4 + 8;

// --- big-endian encode/decode helpers -------------------------------------

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) << 32 | get_u32(p + 4);
}

}  // namespace qsyn::synth::catalog
