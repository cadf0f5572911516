#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "obs/provenance.h"

namespace muri::obs {

namespace {

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread cache of "my ring in tracer X". The generation check makes a
// new Tracer constructed at a recycled address miss the cache instead of
// writing into a dead ring.
struct LocalRingCache {
  const void* tracer = nullptr;
  std::uint64_t generation = 0;
  void* ring = nullptr;
};
thread_local LocalRingCache t_ring_cache;

void append_args(std::string& out, const TraceArgs& args,
                 const std::string& detail) {
  bool any = false;
  for (int i = 0; i < TraceArgs::kCapacity; ++i) {
    if (args.key[i] == nullptr) continue;
    out += any ? ",\"" : ",\"args\":{\"";
    append_json_escaped(out, args.key[i]);
    out += "\":";
    append_json_double(out, args.value[i]);
    any = true;
  }
  if (!detail.empty()) {
    out += any ? ",\"message\":\"" : ",\"args\":{\"message\":\"";
    append_json_escaped(out, detail);
    out += '"';
    any = true;
  }
  if (any) out += '}';
}

}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const char* cat,
                       int pid, int tid, TraceArgs args)
    : tracer_(tracer),
      name_(name),
      cat_(cat),
      pid_(pid),
      tid_(tid),
      args_(args),
      start_us_(tracer != nullptr && tracer->enabled() ? tracer->now_micros()
                                                       : -1) {}

ScopedSpan::~ScopedSpan() {
  if (start_us_ < 0 || tracer_ == nullptr) return;
  const std::int64_t end_us = tracer_->now_micros();
  tracer_->complete(start_us_, std::max<std::int64_t>(end_us - start_us_, 0),
                    name_, cat_, pid_, tid_, args_);
}

Tracer::Tracer(std::size_t ring_capacity)
    : ring_capacity_(std::max<std::size_t>(ring_capacity, 8)),
      generation_(next_generation()),
      origin_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

std::int64_t Tracer::now_micros() const noexcept {
  if (manual_mode_.load(std::memory_order_relaxed)) {
    return manual_us_.load(std::memory_order_relaxed);
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::set_manual_seconds(double seconds) noexcept {
  manual_us_.store(static_cast<std::int64_t>(seconds * 1e6),
                   std::memory_order_relaxed);
  manual_mode_.store(true, std::memory_order_relaxed);
}

Tracer::Ring& Tracer::local_ring() {
  LocalRingCache& cache = t_ring_cache;
  if (cache.tracer == this && cache.generation == generation_) {
    return *static_cast<Ring*>(cache.ring);
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  rings_.push_back(std::make_unique<Ring>(ring_capacity_));
  Ring& ring = *rings_.back();
  ring.capacity = ring_capacity_;
  cache = {this, generation_, &ring};
  return ring;
}

void Tracer::record(char phase, std::int64_t ts_us, std::int64_t dur_us,
                    const char* name, const char* cat, int pid, int tid,
                    const TraceArgs& args, const std::string* detail) {
  Ring& ring = local_ring();
  std::lock_guard<std::mutex> lock(ring.mu);
  Event e{name,   cat,    phase,     pid,  tid, ts_us,
          dur_us, ring.seq++, args, detail != nullptr ? *detail : std::string()};
  if (ring.events.size() < ring.capacity) {
    ring.events.push_back(std::move(e));
  } else {
    // Full: overwrite the oldest event so the ring always holds the most
    // recent window, and account for the loss.
    ring.events[ring.next] = std::move(e);
    ring.next = (ring.next + 1) % ring.capacity;
    ++ring.dropped;
  }
}

void Tracer::instant(const char* name, const char* cat, int pid, int tid,
                     TraceArgs args) {
  if (!enabled()) return;
  record('i', now_micros(), 0, name, cat, pid, tid, args);
}

void Tracer::instant_at(std::int64_t ts_us, const char* name, const char* cat,
                        int pid, int tid, TraceArgs args) {
  if (!enabled()) return;
  record('i', ts_us, 0, name, cat, pid, tid, args);
}

void Tracer::complete(std::int64_t ts_us, std::int64_t dur_us,
                      const char* name, const char* cat, int pid, int tid,
                      TraceArgs args) {
  if (!enabled()) return;
  record('X', ts_us, dur_us, name, cat, pid, tid, args);
}

void Tracer::counter(std::int64_t ts_us, const char* name, int pid,
                     TraceArgs args) {
  if (!enabled()) return;
  record('C', ts_us, 0, name, "counter", pid, 0, args);
}

void Tracer::instant_text(std::int64_t ts_us, const char* name,
                          const char* cat, int pid, int tid,
                          const std::string& message) {
  if (!enabled()) return;
  record('i', ts_us, 0, name, cat, pid, tid, TraceArgs{}, &message);
}

void Tracer::name_track(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  track_names_[pid] = name;
}

void Tracer::name_lane(int pid, int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  lane_names_[{pid, tid}] = name;
}

std::size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::size_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->events.size();
  }
  return total;
}

std::int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::int64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

std::string Tracer::chrome_trace_json() const {
  struct Keyed {
    Event event;
    std::size_t ring_index;
  };
  std::vector<Keyed> all;
  std::int64_t total_dropped = 0;
  std::map<int, std::string> tracks;
  std::map<std::pair<int, int>, std::string> lanes;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    tracks = track_names_;
    lanes = lane_names_;
    for (std::size_t r = 0; r < rings_.size(); ++r) {
      const Ring& ring = *rings_[r];
      std::lock_guard<std::mutex> ring_lock(ring.mu);
      total_dropped += ring.dropped;
      // Oldest-first: once wrapped, `next` points at the oldest slot.
      const std::size_t sz = ring.events.size();
      const std::size_t start = sz == ring.capacity ? ring.next : 0;
      for (std::size_t i = 0; i < sz; ++i) {
        all.push_back({ring.events[(start + i) % sz], r});
      }
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
    if (a.event.ts_us != b.event.ts_us) return a.event.ts_us < b.event.ts_us;
    if (a.event.pid != b.event.pid) return a.event.pid < b.event.pid;
    if (a.event.tid != b.event.tid) return a.event.tid < b.event.tid;
    if (a.ring_index != b.ring_index) return a.ring_index < b.ring_index;
    return a.event.seq < b.event.seq;
  });

  std::string out;
  out.reserve(128 + all.size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (const auto& [pid, name] : tracks) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":\"",
                  pid);
    out += buf;
    append_json_escaped(out, name);
    out += "\"}}";
  }
  for (const auto& [key, name] : lanes) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":\"",
                  key.first, key.second);
    out += buf;
    append_json_escaped(out, name);
    out += "\"}}";
  }
  for (const Keyed& k : all) {
    const Event& e = k.event;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, e.cat);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"%c\",\"ts\":%lld,", e.phase,
                  static_cast<long long>(e.ts_us));
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), "\"dur\":%lld,",
                    static_cast<long long>(e.dur_us));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "\"pid\":%d,\"tid\":%d", e.pid, e.tid);
    out += buf;
    append_args(out, e.args, e.detail);
    out += '}';
  }
  std::snprintf(buf, sizeof(buf),
                "],\"displayTimeUnit\":\"ms\","
                "\"otherData\":{\"droppedEvents\":%lld}}",
                static_cast<long long>(total_dropped));
  out += buf;
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

// The tracer behind the common/logging hook. Written only by
// attach_log_tracer (under the log mutex via set_log_hook) and read by the
// hook itself, which also runs under the log mutex.
Tracer* g_log_tracer = nullptr;

void log_to_tracer(LogLevel level, const char* message, void* /*ctx*/) {
  Tracer* const t = g_log_tracer;
  if (t == nullptr || level < LogLevel::kWarn) return;
  const char* const name = level >= LogLevel::kError ? "error" : "warn";
  t->instant_text(t->now_micros(), name, "log", kSchedulerTrack, 0, message);
}

}  // namespace

void attach_log_tracer(Tracer* tracer) {
  // Order matters on detach: clear the hook first so no emit() can race a
  // dying tracer. set_log_hook serializes with in-flight emits.
  if (tracer == nullptr) {
    set_log_hook(nullptr, nullptr);
    g_log_tracer = nullptr;
    return;
  }
  g_log_tracer = tracer;
  set_log_hook(&log_to_tracer, nullptr);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->dropped = 0;
    ring->seq = 0;
  }
  track_names_.clear();
  lane_names_.clear();
}

}  // namespace muri::obs
