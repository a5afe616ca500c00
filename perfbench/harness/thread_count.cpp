// Peak live-thread counter: this executable defines pthread_create, which
// the dynamic linker binds ahead of libc's for every caller in the process
// (std::thread inside libstdc++ included), and forwards to libc's through
// dlsym(RTLD_NEXT). The harness reports the peak so its self-test can
// check that no workload runs more than nproc threads at once.
#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <cerrno>

#include "bench.h"

namespace {

std::atomic<int> g_live{1};  // the main thread
std::atomic<int> g_peak{1};

struct Start {
  void* (*fn)(void*);
  void* arg;
};

struct LiveGuard {
  ~LiveGuard() { g_live.fetch_sub(1); }
};

void* trampoline(void* p) {
  const Start start = *static_cast<Start*>(p);
  delete static_cast<Start*>(p);
  LiveGuard guard;  // also runs on pthread_exit's unwind
  return start.fn(start.arg);
}

using CreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*fn)(void*), void* arg) {
  static const auto real =
      reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT, "pthread_create"));
  if (real == nullptr) return EAGAIN;
  // Count the thread before it exists, so the peak can never miss it.
  const int live = g_live.fetch_add(1) + 1;
  int peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  auto* start = new Start{fn, arg};
  const int rc = real(thread, attr, &trampoline, start);
  if (rc != 0) {
    delete start;
    g_live.fetch_sub(1);
  }
  return rc;
}

namespace perfbench {

int peak_threads() { return g_peak.load(); }

}  // namespace perfbench
