// Configuration validation error type used by ArchConfig and module configs.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ara {

/// Thrown when a simulation configuration is internally inconsistent
/// (e.g. zero islands, an SPM port count below the ABB minimum, or an
/// unknown network topology). Configuration errors are programming errors
/// on the caller's side, so an exception (rather than a status return) is
/// appropriate: no valid simulation can be constructed.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what);
};

/// Throws ConfigError with `message` when `ok` is false.
void config_check(bool ok, std::string_view message);

}  // namespace ara
