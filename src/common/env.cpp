#include "common/env.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace qsyn {

namespace {

std::mutex warned_mutex;
std::set<std::string>& warned_names() {
  static std::set<std::string> names;
  return names;
}

/// Emits "qsyn: ignoring <name>='<value>' (<expected>)" on stderr, at most
/// once per variable name for the process lifetime.
void warn_env_once(const char* name, const std::string& value,
                   const std::string& expected) {
  {
    std::lock_guard<std::mutex> lock(warned_mutex);
    if (!warned_names().insert(name).second) return;
  }
  std::fprintf(stderr, "qsyn: ignoring %s='%s' (%s)\n", name, value.c_str(),
               expected.c_str());
}

}  // namespace

void reset_env_warnings_for_testing() {
  std::lock_guard<std::mutex> lock(warned_mutex);
  warned_names().clear();
}

std::optional<std::size_t> parse_env_size_t(const char* name,
                                            std::size_t min_value,
                                            std::size_t max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return std::nullopt;

  const std::string expected = "expected an integer in [" +
                               std::to_string(min_value) + ", " +
                               std::to_string(max_value) + "]";
  std::size_t value = 0;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      warn_env_once(name, env, expected);
      return std::nullopt;
    }
    const std::size_t digit = static_cast<std::size_t>(*p - '0');
    if (value > max_value / 10 ||
        (value == max_value / 10 && digit > max_value % 10)) {
      warn_env_once(name, env, expected);  // would exceed max_value
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  if (value < min_value || value > max_value) {
    warn_env_once(name, env, expected);
    return std::nullopt;
  }
  return value;
}

}  // namespace qsyn
