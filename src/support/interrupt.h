// Cooperative SIGTERM/SIGINT drain (DESIGN.md section 16). mbf_cli and
// the supervisor install one async-signal-safe handler that only sets an
// atomic flag; the per-shape driver polls it and stops starting new
// shapes, so an interrupted run flushes its journal, writes a manifest
// stamped "interrupted", and exits with the partial-success code instead
// of dying mid-write.
#pragma once

namespace mbf {

/// Installs the SIGTERM/SIGINT handler (idempotent). Safe to call from
/// main() before threads start.
void installInterruptHandlers();

/// True once SIGTERM or SIGINT has been delivered.
bool interruptRequested();

}  // namespace mbf
