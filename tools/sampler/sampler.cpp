// In-process sampling profiler, loaded with LD_PRELOAD:
//
//   LD_PRELOAD=build/tools/libmuri_sampler.so ./build/examples/trace_sim
//   python3 tools/fold_samples.py --root run_simulation muri-samples.*.txt
//
// SIGPROF fires after every millisecond of process CPU time (ITIMER_PROF),
// rounded up to the kernel's timer tick (4 ms at HZ=250, so ~250 samples
// per CPU second), and the handler stores the interrupted call stack as raw
// addresses. At exit each address is written as module+offset, one sample
// per line, leaf first, to muri-samples.<pid>.txt in the working
// directory; tools/fold_samples.py symbolizes them with addr2line.
//
// Two caveats. Samples land in libc too (malloc, free), which gprof never
// samples. And a sample is charged to the instruction after the one that
// was executing, so samples pile up right after slow or serializing
// instructions (a locked cmpxchg, a division): read a hot line as "near
// here", not "this instruction".
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>

namespace {

constexpr int kMaxDepth = 64;
// Sample storage: per sample one depth word, then its frames.
constexpr std::size_t kWords = std::size_t{1} << 22;
void* g_words[kWords];
std::atomic<std::size_t> g_used{0};

void on_sigprof(int) {
  void* frames[kMaxDepth];
  const int n = backtrace(frames, kMaxDepth);
  // frames[0] is this handler and frames[1] the signal trampoline.
  if (n <= 2) return;
  const auto depth = static_cast<std::size_t>(n - 2);
  const std::size_t at = g_used.fetch_add(depth + 1, std::memory_order_relaxed);
  if (at + depth + 1 > kWords) return;  // full: drop the sample
  g_words[at] = reinterpret_cast<void*>(depth);
  for (std::size_t i = 0; i < depth; ++i) g_words[at + 1 + i] = frames[i + 2];
}

__attribute__((constructor)) void start_sampling() {
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder outside the signal handler
  struct sigaction sa = {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

void write_frame(std::FILE* out, const char* exe, void* pc) {
  Dl_info info;
  link_map* map = nullptr;
  const auto addr = reinterpret_cast<std::uintptr_t>(pc);
  if (dladdr1(pc, &info, reinterpret_cast<void**>(&map), RTLD_DL_LINKMAP) ==
          0 ||
      map == nullptr) {
    std::fprintf(out, " ?+0x%" PRIxPTR, addr);
    return;
  }
  // The main program's link map has an empty name; its offset, like a
  // library's, is the address minus the load bias, which addr2line reads.
  const char* module = map->l_name[0] != '\0' ? map->l_name : exe;
  std::fprintf(out, " %s+0x%" PRIxPTR, module, addr - map->l_addr);
}

__attribute__((destructor)) void write_samples() {
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[len > 0 ? len : 0] = '\0';
  char name[64];
  std::snprintf(name, sizeof(name), "muri-samples.%d.txt",
                static_cast<int>(getpid()));
  std::FILE* out = std::fopen(name, "w");
  if (out == nullptr) return;
  const std::size_t used =
      std::min(g_used.load(std::memory_order_relaxed), kWords);
  for (std::size_t at = 0; at < used;) {
    const auto depth = reinterpret_cast<std::size_t>(g_words[at]);
    if (depth == 0 || at + 1 + depth > used) break;
    for (std::size_t i = 0; i < depth; ++i) {
      write_frame(out, exe, g_words[at + 1 + i]);
    }
    std::fputc('\n', out);
    at += 1 + depth;
  }
  std::fclose(out);
}

}  // namespace
