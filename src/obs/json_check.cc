#include "obs/json_check.h"

#include "obs/json_io.h"

namespace ara::obs {

bool validate_json(std::string_view text, std::string* error) {
  JsonValue ignored;
  return parse_json(text, &ignored, error);
}

}  // namespace ara::obs
