// Heap-profiler shim for tools/heapprof.py, loaded into the profiled process
// through LD_PRELOAD. When HEAPPROF_OUT names a file, it interposes malloc,
// calloc, realloc, free and the aligned allocators, charges every live block
// to the call stack that allocated it, and keeps, per stack, the bytes it
// held when the process's live heap peaked. At exit it writes to that file
// the process's /proc/self/maps, a line "peak <bytes> <blocks>", then one
// line per stack that held bytes at the peak: "<bytes> <blocks>" and the
// stack's return addresses in hex, innermost first. Without HEAPPROF_OUT it
// only forwards to the C library.
//
// The bookkeeping lives in mmap'd tables, never on the heap it watches: an
// open-addressed map from block address to (stack, size) and a fixed table
// of stacks. The peak is kept lazily: a stack saves its live count the
// first time it changes after a new peak, so each call costs O(1) however
// often the peak moves. Stacks come from backtrace(), so every allocation
// pays one unwind; the profile is for where memory sits, not for speed.
#include <execinfo.h>
#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" {
void* __libc_malloc(std::size_t);
void* __libc_calloc(std::size_t, std::size_t);
void* __libc_realloc(void*, std::size_t);
void* __libc_memalign(std::size_t, std::size_t);
void __libc_free(void*);
}

namespace {

/// Return addresses kept per stack; heapprof.py skips the shim's own.
constexpr int kDepth = 14;
/// Distinct stacks tracked; further ones are charged to one overflow stack.
constexpr std::size_t kMaxSites = std::size_t{1} << 14;
constexpr std::size_t kFirstBlockSlots = std::size_t{1} << 16;

struct Site {
  std::uint64_t hash = 0;  ///< 0 = unused slot
  int depth = 0;
  void* frames[kDepth];
  std::int64_t live = 0;
  std::int64_t blocks = 0;
  /// live and blocks as of the latest peak, valid when stamp == g_peaks.
  std::int64_t saved = 0;
  std::int64_t saved_blocks = 0;
  std::uint64_t stamp = 0;
};

struct Block {
  std::uintptr_t addr = 0;  ///< 0 = empty slot
  std::uint64_t size = 0;
  std::uint32_t site = 0;
};

Site* g_sites = nullptr;
Block* g_blocks = nullptr;
std::size_t g_block_slots = 0;
std::size_t g_block_count = 0;

std::int64_t g_live = 0;
std::int64_t g_live_blocks = 0;
std::int64_t g_peak = 0;
std::int64_t g_peak_blocks = 0;
std::uint64_t g_peaks = 0;  ///< new peaks seen so far

std::atomic<bool> g_armed{false};
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
/// Set while this thread is inside the shim: the unwinder and stdio may
/// allocate, and those blocks go straight to the C library.
__attribute__((tls_model("initial-exec"))) thread_local bool t_busy = false;

void* map_zeroed(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

struct Lock {
  Lock() {
    while (g_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~Lock() { g_lock.clear(std::memory_order_release); }
};

std::size_t block_slot(std::uintptr_t addr, std::size_t slots) {
  return static_cast<std::size_t>((addr >> 4) * 0x9e3779b97f4a7c15ULL) & (slots - 1);
}

void insert_block(Block* table, std::size_t slots, const Block& b) {
  std::size_t i = block_slot(b.addr, slots);
  while (table[i].addr != 0) i = (i + 1) & (slots - 1);
  table[i] = b;
}

/// Double the block table once it is half full.
bool grow_blocks() {
  const std::size_t slots = g_block_slots ? g_block_slots * 2 : kFirstBlockSlots;
  auto* table = static_cast<Block*>(map_zeroed(slots * sizeof(Block)));
  if (table == nullptr) return false;
  for (std::size_t i = 0; i < g_block_slots; ++i)
    if (g_blocks[i].addr != 0) insert_block(table, slots, g_blocks[i]);
  if (g_blocks != nullptr) munmap(g_blocks, g_block_slots * sizeof(Block));
  g_blocks = table;
  g_block_slots = slots;
  return true;
}

/// Remove `addr`'s entry (backward-shift deletion keeps probes tombstone
/// free); false when the block was never tracked.
bool take_block(std::uintptr_t addr, Block* out) {
  if (g_block_slots == 0) return false;
  const std::size_t mask = g_block_slots - 1;
  std::size_t i = block_slot(addr, g_block_slots);
  while (g_blocks[i].addr != addr) {
    if (g_blocks[i].addr == 0) return false;
    i = (i + 1) & mask;
  }
  *out = g_blocks[i];
  for (std::size_t j = (i + 1) & mask; g_blocks[j].addr != 0; j = (j + 1) & mask) {
    const std::size_t home = block_slot(g_blocks[j].addr, g_block_slots);
    // Move j into the hole at i unless its home lies cyclically in (i, j].
    if (((j - home) & mask) >= ((j - i) & mask)) {
      g_blocks[i] = g_blocks[j];
      i = j;
    }
  }
  g_blocks[i] = Block{};
  --g_block_count;
  return true;
}

std::uint32_t site_of(void* const* frames, int depth) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < depth; ++i) {
    h ^= reinterpret_cast<std::uintptr_t>(frames[i]);
    h *= 0x100000001b3ULL;
  }
  h |= 1;  // never 0, the unused mark
  // Slot 0 is the overflow stack.
  std::size_t i = 1 + static_cast<std::size_t>(h % (kMaxSites - 1));
  for (std::size_t probes = 0; probes < kMaxSites / 2; ++probes) {
    Site& s = g_sites[i];
    if (s.hash == h && s.depth == depth &&
        std::memcmp(s.frames, frames, sizeof(void*) * static_cast<std::size_t>(depth)) == 0)
      return static_cast<std::uint32_t>(i);
    if (s.hash == 0) {
      s.hash = h;
      s.depth = depth;
      std::memcpy(s.frames, frames, sizeof(void*) * static_cast<std::size_t>(depth));
      return static_cast<std::uint32_t>(i);
    }
    i = i + 1 < kMaxSites ? i + 1 : 1;
  }
  return 0;
}

/// Charge `bytes` (negative: release) to a site, saving its peak-time
/// counts first if this is its first change since the latest peak.
void charge(Site& s, std::int64_t bytes, std::int64_t blocks) {
  if (s.stamp != g_peaks) {
    s.saved = s.live;
    s.saved_blocks = s.blocks;
    s.stamp = g_peaks;
  }
  s.live += bytes;
  s.blocks += blocks;
  g_live += bytes;
  g_live_blocks += blocks;
  if (g_live > g_peak) {
    g_peak = g_live;
    g_peak_blocks = g_live_blocks;
    ++g_peaks;  // every site's peak-time count is now its live count
  }
}

void record(void* p, std::size_t size) {
  void* frames[kDepth];
  const int depth = backtrace(frames, kDepth);
  Lock lock;
  if (2 * (g_block_count + 1) > g_block_slots && !grow_blocks()) return;
  const std::uint32_t site = site_of(frames, depth);
  insert_block(g_blocks, g_block_slots, {reinterpret_cast<std::uintptr_t>(p), size, site});
  ++g_block_count;
  charge(g_sites[site], static_cast<std::int64_t>(size), 1);
}

void forget(void* p) {
  Lock lock;
  Block b;
  if (take_block(reinterpret_cast<std::uintptr_t>(p), &b))
    charge(g_sites[b.site], -static_cast<std::int64_t>(b.size), -1);
}

/// Run `alloc` and track its block unless the shim is off or re-entered.
template <typename Alloc>
void* tracked(std::size_t size, Alloc alloc) {
  if (!g_armed.load(std::memory_order_relaxed) || t_busy) return alloc();
  t_busy = true;
  void* p = alloc();
  if (p != nullptr) record(p, size);
  t_busy = false;
  return p;
}

void untrack(void* p) {
  if (p == nullptr || !g_armed.load(std::memory_order_relaxed) || t_busy) return;
  t_busy = true;
  forget(p);
  t_busy = false;
}

__attribute__((constructor)) void heapprof_start() {
  if (std::getenv("HEAPPROF_OUT") == nullptr) return;
  g_sites = static_cast<Site*>(map_zeroed(kMaxSites * sizeof(Site)));
  if (g_sites == nullptr || !grow_blocks()) return;
  // Load the unwinder now: its first use allocates.
  t_busy = true;
  void* warm[2];
  (void)backtrace(warm, 2);
  t_busy = false;
  g_armed.store(true);
}

__attribute__((destructor)) void heapprof_stop() {
  if (!g_armed.exchange(false)) return;
  t_busy = true;
  std::FILE* out = std::fopen(std::getenv("HEAPPROF_OUT"), "w");
  if (out == nullptr) return;
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) std::fwrite(buf, 1, n, out);
    std::fclose(maps);
  }
  std::fprintf(out, "peak %lld %lld\n", static_cast<long long>(g_peak),
               static_cast<long long>(g_peak_blocks));
  for (std::size_t i = 0; i < kMaxSites; ++i) {
    const Site& s = g_sites[i];
    const bool saved = s.stamp == g_peaks;
    const std::int64_t bytes = saved ? s.saved : s.live;
    const std::int64_t blocks = saved ? s.saved_blocks : s.blocks;
    if (bytes <= 0) continue;
    std::fprintf(out, "%lld %lld", static_cast<long long>(bytes),
                 static_cast<long long>(blocks));
    for (int f = 0; f < s.depth; ++f) std::fprintf(out, " %zx", reinterpret_cast<std::size_t>(s.frames[f]));
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace

extern "C" {

void* malloc(std::size_t n) {
  return tracked(n, [&] { return __libc_malloc(n); });
}

void* calloc(std::size_t count, std::size_t n) {
  return tracked(count * n, [&] { return __libc_calloc(count, n); });
}

void* realloc(void* p, std::size_t n) {
  if (p == nullptr) return malloc(n);
  if (n == 0) {
    free(p);
    return nullptr;
  }
  // Uncharge first: once the C library has moved the block, another thread
  // may be handed p's address. A failed realloc leaves p uncharged.
  untrack(p);
  return tracked(n, [&] { return __libc_realloc(p, n); });
}

void free(void* p) {
  untrack(p);
  __libc_free(p);
}

void* memalign(std::size_t align, std::size_t n) {
  return tracked(n, [&] { return __libc_memalign(align, n); });
}

void* aligned_alloc(std::size_t align, std::size_t n) { return memalign(align, n); }

int posix_memalign(void** out, std::size_t align, std::size_t n) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) return EINVAL;
  void* p = memalign(align, n);
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

}  // extern "C"
