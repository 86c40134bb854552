// Sampling-profiler shim for tools/sprof.py, loaded into the profiled
// process through LD_PRELOAD. When SPROF_OUT names a file, it samples the
// interrupted instruction pointer about every 100 us of wall time (a
// CLOCK_MONOTONIC timer raising SIGPROF) and, at exit, writes to that file
// the process's /proc/self/maps, then a line "samples <kept> <taken>", then
// one hex address per kept sample. Without SPROF_OUT it does nothing.
//
// Nothing here calls into the profiled program, and the signal handler only
// stores into a preallocated array, so the profile costs one signal per
// sample and no heap traffic.
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kPeriodNs = 100'000;
/// About 100 s of samples; the pages a short run never touches stay unmapped.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
timer_t g_timer;
bool g_armed = false;

void on_sigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto ip = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto ip = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  const std::uintptr_t ip = 0;
#endif
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_samples[i] = ip;
}

__attribute__((constructor)) void sprof_start() {
  if (std::getenv("SPROF_OUT") == nullptr) return;
  struct sigaction sa = {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  sigevent sev = {};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  itimerspec period = {};
  period.it_interval.tv_nsec = kPeriodNs;
  period.it_value.tv_nsec = kPeriodNs;
  g_armed = timer_settime(g_timer, 0, &period, nullptr) == 0;
}

__attribute__((destructor)) void sprof_stop() {
  if (!g_armed) return;
  g_armed = false;
  timer_delete(g_timer);
  signal(SIGPROF, SIG_IGN);
  std::FILE* out = std::fopen(std::getenv("SPROF_OUT"), "w");
  if (out == nullptr) return;
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) std::fwrite(buf, 1, n, out);
    std::fclose(maps);
  }
  const std::size_t taken = g_taken.load();
  const std::size_t kept = std::min(taken, kMaxSamples);
  std::fprintf(out, "samples %zu %zu\n", kept, taken);
  for (std::size_t i = 0; i < kept; ++i)
    std::fprintf(out, "%zx\n", static_cast<std::size_t>(g_samples[i]));
  std::fclose(out);
}

}  // namespace
