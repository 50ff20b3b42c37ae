#include "common/config_error.h"

namespace ara {

ConfigError::ConfigError(const std::string& what)
    : std::runtime_error("ara config error: " + what) {}

void config_check(bool ok, std::string_view message) {
  if (!ok) throw ConfigError(std::string(message));
}

}  // namespace ara
