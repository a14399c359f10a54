#include "tracer.h"

#include <cstdio>
#include <unordered_map>

#include "bench.h"

namespace lidibench {

namespace {
/// The calling thread's view of the process's tracer.
struct ThreadState {
  const Tracer* owner = nullptr;
  void* buffer = nullptr;
  uint64_t ops = 0;
  bool sampled = false;
  uint64_t parent = 0;
  int64_t* tier_calls = nullptr;  // innermost open tier span's call count
};
thread_local ThreadState t_state;

const char* KindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kTier: return "tier";
    case SpanKind::kCall: return "call";
    case SpanKind::kHandler: return "handler";
  }
  return "?";
}
}  // namespace

Tracer::Tracer(int sample_every)
    : sample_every_(sample_every < 1 ? 1 : sample_every) {}

Tracer::~Tracer() = default;

const char* Tracer::Intern(const std::string& name) {
  thread_local const Tracer* cache_owner = nullptr;
  thread_local std::unordered_map<std::string, const char*> cache;
  if (cache_owner != this) {
    cache.clear();
    cache_owner = this;
  }
  auto hit = cache.find(name);
  if (hit != cache.end()) return hit->second;
  lidi::MutexLock lock(&mu_);
  auto& slot = names_[name];
  if (slot == nullptr) slot = std::make_unique<std::string>(name);
  cache.emplace(name, slot->c_str());
  return slot->c_str();
}

bool Tracer::Sampled() const {
  return t_state.owner == this && t_state.sampled;
}

uint64_t Tracer::CurrentParent() const {
  return t_state.owner == this ? t_state.parent : 0;
}

void Tracer::CountChildCall() {
  if (t_state.owner == this && t_state.tier_calls != nullptr) {
    ++*t_state.tier_calls;
  }
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_state.owner != this) {
    t_state = ThreadState{};
    t_state.owner = this;
  }
  if (t_state.buffer == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 14);
    t_state.buffer = buffer.get();
    lidi::MutexLock lock(&mu_);
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(t_state.buffer);
}

void Tracer::Record(const SpanRecord& span) {
  ThreadBuffer()->spans.push_back(span);
}

std::vector<SpanRecord> Tracer::WindowSpans() const {
  std::vector<SpanRecord> out;
  lidi::MutexLock lock(&mu_);
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.start_ns >= window_start_ns_ && span.start_ns < window_end_ns_) {
        out.push_back(span);
      }
    }
  }
  return out;
}

int64_t Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  int64_t written = 0;
  lidi::MutexLock lock(&mu_);
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"kind\":\"%s\","
                   "\"name\":\"%s\",\"start_ns\":%lld,\"duration_ns\":%lld,"
                   "\"aux\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), KindName(s.kind),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.duration_ns),
                   static_cast<long long>(s.aux));
      ++written;
    }
  }
  return std::fclose(f) == 0 ? written : -1;
}

Tracer::OpScope::OpScope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  tracer_->ThreadBuffer();  // binds the thread to this tracer
  if (++t_state.ops % static_cast<uint64_t>(tracer_->sample_every_) != 0) {
    return;
  }
  t_state.sampled = true;
  span_.id = tracer_->NewSpanId();
  span_.name = name;
  span_.kind = SpanKind::kOp;
  saved_parent_ = t_state.parent;
  t_state.parent = span_.id;
  span_.start_ns = NowNs();
}

Tracer::OpScope::~OpScope() {
  if (tracer_ == nullptr || span_.id == 0) return;
  span_.duration_ns = NowNs() - span_.start_ns;
  t_state.parent = saved_parent_;
  t_state.sampled = false;
  tracer_->Record(span_);
}

Tracer::TierScope::TierScope(Tracer* tracer, const char* name)
    : tracer_(tracer) {
  span_.id = tracer_->NewSpanId();
  span_.parent = t_state.parent;
  span_.name = name;
  span_.kind = SpanKind::kTier;
  saved_parent_ = t_state.parent;
  saved_calls_ = t_state.tier_calls;
  t_state.parent = span_.id;
  t_state.tier_calls = &child_calls_;
  span_.start_ns = NowNs();
}

Tracer::TierScope::~TierScope() {
  span_.duration_ns = NowNs() - span_.start_ns;
  span_.aux = child_calls_;
  t_state.parent = saved_parent_;
  t_state.tier_calls = saved_calls_;
  tracer_->Record(span_);
}

}  // namespace lidibench
