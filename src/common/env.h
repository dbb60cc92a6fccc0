// qsyn/common/env.h
//
// Strict environment-variable parsing, shared by every QSYN_* knob.
//
// Before this header existed, each getenv site parsed its variable with its
// own ad-hoc strtoul call, and the permissive ones silently accepted
// trailing garbage ("QSYN_THREADS=8abc" read as 8) or silently dropped
// malformed values ("QSYN_THREADS=abc" ignored with no diagnostic) while
// other sites rejected both. parse_env_size_t is the one strict
// parser: the whole value must be a plain base-10 unsigned integer inside
// the caller's range, and anything else is ignored *loudly* — a one-time
// warning on stderr names the variable, the offending value, and the
// accepted range, so a typo in a job script degrades to the default instead
// of half-applying.
#pragma once

#include <cstddef>
#include <optional>

namespace qsyn {

/// Reads the environment variable `name` as a strict base-10 unsigned
/// integer in [min_value, max_value]. Returns nullopt when the variable is
/// unset or empty (silently) and when the value is malformed — non-digit
/// characters anywhere, including trailing garbage — or out of range (with a
/// one-time stderr warning per variable name). Never partially accepts a
/// value.
[[nodiscard]] std::optional<std::size_t> parse_env_size_t(
    const char* name, std::size_t min_value, std::size_t max_value);

/// Test hook: forgets which variable names have already warned, so suites
/// can assert the warning fires. Not thread-safe against concurrent
/// parse_env_size_t calls; call only from single-threaded test code.
void reset_env_warnings_for_testing();

}  // namespace qsyn
