#include "probe.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <thread>

namespace {

std::atomic<bool> g_count_allocs{false};

// One counter per thread slot, each on its own cache line, so fleet
// workers counting allocations do not contend on a shared atomic.
constexpr int kAllocSlots = 64;
struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> count{0};
};
AllocSlot g_allocs[kAllocSlots];
std::atomic<int> g_next_slot{0};

AllocSlot& my_alloc_slot() {
  thread_local AllocSlot& slot =
      g_allocs[g_next_slot.fetch_add(1, std::memory_order_relaxed) %
               kAllocSlots];
  return slot;
}

}  // namespace

// Counting allocator. Forwards to malloc exactly like the default
// operator new, so untraced runs keep the stock allocation cost. GCC 12
// flags free() inside a replaced operator delete as a mismatch; the pair
// below is matched by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    my_alloc_slot().count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t len = std::strlen(field);
  char line[256];
  std::int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtoll(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const AllocSlot& slot : g_allocs) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int Spans::open(const char* name, std::int64_t start_ns, int parent,
                std::int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = tids_.try_emplace(std::this_thread::get_id(),
                                    static_cast<int>(tids_.size()))
                      .first->second;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.tid = tid;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Spans::close(int id, std::int64_t end_ns) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

void Spans::recycle_thread_slots() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = tids_.begin(); it != tids_.end();) {
    it = it->second == 0 ? std::next(it) : tids_.erase(it);
  }
}

std::vector<Span> Spans::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  int max_tid = 0;
  for (const Span& s : spans) {
    t0 = std::min(t0, s.start_ns);
    max_tid = std::max(max_tid, s.tid);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  std::fputs("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
             "\"args\":{\"name\":\"e2e_profile (host time)\"}}",
             f);
  for (int tid = 0; tid <= max_tid; ++tid) {
    std::fprintf(f,
                 ",{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"%s %d\"}}",
                 tid, tid == 0 ? "driver" : "runner", tid);
  }
  for (const Span& s : spans) {
    // Span names are benchmark-chosen identifiers: no JSON escaping needed.
    std::fprintf(f,
                 ",{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"request\":%lld}}",
                 s.name.c_str(), s.tid,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent, static_cast<long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
