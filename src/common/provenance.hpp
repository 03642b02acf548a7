// Build/run provenance for experiment artifacts and flight recordings.
//
// Every BENCH_*.json and every recording file embeds one of these blocks so
// an artifact found in CI logs or a soak archive is self-describing: which
// commit produced it, with which compiler, which field kernel the runtime
// dispatch settled on, and how many worker lanes were available/configured.
// Seeds are run-specific and are added by the caller (the recorder's config
// block, a bench's params) rather than collected here.
#pragma once

#include "common/json.hpp"

namespace gfor14::provenance {

/// Git commit the library was configured from (CMake-time `git rev-parse`,
/// "unknown" outside a git checkout).
const char* git_sha();

/// Compiler id + version string the library was built with.
const char* compiler();

/// {"git_sha", "compiler", "build_type", "field", "ff_kernel",
///  "hardware_threads", "default_threads"} — the environment half of a
/// provenance block. ff_kernel reports the *currently dispatched* kernel,
/// so collect after any set_kernel override.
json::Value collect();

}  // namespace gfor14::provenance
