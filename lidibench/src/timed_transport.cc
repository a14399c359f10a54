#include "timed_transport.h"

#include "bench.h"

namespace lidibench {

using lidi::PinnedSlice;
using lidi::Result;
using lidi::Slice;

TimedTransport::Slot* TimedTransport::SlotFor(const std::string& from) {
  // Every handler invocation looks its caller's slot up, so each thread
  // keeps its own index and takes the shared lock only on a miss.
  thread_local const TimedTransport* cache_owner = nullptr;
  thread_local std::unordered_map<std::string, Slot*> cache;
  if (cache_owner != this) {
    cache.clear();
    cache_owner = this;
  }
  auto hit = cache.find(from);
  if (hit != cache.end()) return hit->second;
  lidi::MutexLock lock(&mu_);
  auto& slot = slots_[from];
  if (slot == nullptr) slot = std::make_unique<Slot>();
  cache.emplace(from, slot.get());
  return slot.get();
}

void TimedTransport::RegisterPayload(const lidi::net::Address& addr,
                                     const std::string& method,
                                     lidi::net::PayloadHandler handler) {
  const char* name = tracer_->Intern(method);
  inner_->RegisterPayload(
      addr, method,
      [this, name, handler = std::move(handler)](
          Slice request) -> Result<PinnedSlice> {
        Slot* slot = SlotFor(lidi::net::CallerIdentity());
        const uint64_t parent = slot->client_span.load();
        if (parent == 0) return handler(request);
        SpanRecord span;
        span.id = tracer_->NewSpanId();
        span.parent = parent;
        span.name = name;
        span.kind = SpanKind::kHandler;
        span.start_ns = NowNs();
        Result<PinnedSlice> result = handler(request);
        span.duration_ns = NowNs() - span.start_ns;
        slot->handler_ns.store(span.duration_ns);
        tracer_->Record(span);
        return result;
      });
}

Result<PinnedSlice> TimedTransport::CallPayload(
    const lidi::net::Address& from, const lidi::net::Address& to,
    const std::string& method, Slice request,
    const lidi::net::CallOptions& options) {
  tracer_->CountChildCall();
  Result<PinnedSlice> result =
      tracer_->Sampled()
          ? SampledCall(from, to, method, request, options)
          : inner_->CallPayload(from, to, method, request, options);
  const int64_t response_bytes =
      result.ok() ? static_cast<int64_t>(result.value().size()) : 0;
  tracer_->call_bytes.fetch_add(
      static_cast<int64_t>(request.size()) + response_bytes,
      std::memory_order_relaxed);
  if (method == "kafka.fetch") {
    tracer_->fetch_bytes.fetch_add(response_bytes, std::memory_order_relaxed);
  }
  return result;
}

Result<PinnedSlice> TimedTransport::SampledCall(
    const lidi::net::Address& from, const lidi::net::Address& to,
    const std::string& method, Slice request,
    const lidi::net::CallOptions& options) {
  Slot* slot = SlotFor(from);
  SpanRecord span;
  span.id = tracer_->NewSpanId();
  span.parent = tracer_->CurrentParent();
  span.name = tracer_->Intern(method);
  span.kind = SpanKind::kCall;
  const bool exclusive = slot->inflight.fetch_add(1) == 0;
  if (exclusive) {
    slot->handler_ns.store(-1);
    slot->client_span.store(span.id);
  }
  span.start_ns = NowNs();
  Result<PinnedSlice> result =
      inner_->CallPayload(from, to, method, request, options);
  span.duration_ns = NowNs() - span.start_ns;
  if (exclusive) {
    slot->client_span.store(0);
    span.aux = slot->handler_ns.exchange(-1);
  }
  slot->inflight.fetch_sub(1);
  tracer_->Record(span);
  return result;
}

}  // namespace lidibench
