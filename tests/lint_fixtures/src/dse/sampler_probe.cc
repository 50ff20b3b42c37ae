// Fixture: "check/..." is outside dse's layer_deps edges, so any dse file
// including it is a layering violation (check already depends on dse; the
// edge would close a cycle).
#include "check/fuzz.h"

unsigned long long fixture_sampler_probe() {
  return 0;
}
