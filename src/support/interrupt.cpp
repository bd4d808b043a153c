#include "support/interrupt.h"

#include <csignal>

#include <atomic>

namespace mbf {
namespace {

std::atomic<bool> g_interrupted{false};

void onSignal(int) { g_interrupted.store(true, std::memory_order_relaxed); }

}  // namespace

void installInterruptHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = &onSignal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a blocked read/wait should come back with EINTR so
  // the drain is prompt; all I/O in the pipeline retries EINTR itself.
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

bool interruptRequested() {
  return g_interrupted.load(std::memory_order_relaxed);
}

}  // namespace mbf
