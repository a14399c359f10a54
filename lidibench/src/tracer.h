// The traced run's span recorder. Spans are recorded from the benchmark's
// own files, around the calls it makes into each layer (TierScope) and, via
// TimedTransport, around every transport call and server handler. They stay
// in per-thread memory and are written out when the run ends.
#ifndef LIDIBENCH_TRACER_H_
#define LIDIBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace lidibench {

enum class SpanKind : uint8_t {
  kOp,       // one load operation or one pipeline poll (root)
  kTier,     // a call into a tier's public API
  kCall,     // one transport call, client side
  kHandler,  // one transport handler, server side
};

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;         // 0 = root
  const char* name = nullptr;  // interned; lives as long as the Tracer
  SpanKind kind = SpanKind::kOp;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// kTier: transport calls made under the span. kCall: duration of the
  /// paired server handler, or -1 when the call could not be paired.
  int64_t aux = -1;
};

/// Head-sampled span recorder: every `sample_every`-th operation a thread
/// starts is traced in full (its tier calls, its transport calls and the
/// server handlers they reach); the rest pay one thread-local branch. One
/// Tracer per process.
class Tracer {
 public:
  explicit Tracer(int sample_every);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name (stable pointer for the tracer's lifetime).
  const char* Intern(const std::string& name);

  /// True when the calling thread is inside a sampled operation.
  bool Sampled() const;
  uint64_t NewSpanId() { return next_id_.fetch_add(1) + 1; }
  /// Parent for a span opened now on this thread (0 outside any span).
  uint64_t CurrentParent() const;
  /// Counts one transport call against the innermost open tier span.
  void CountChildCall();
  /// Appends a finished span to the calling thread's buffer.
  void Record(const SpanRecord& span);

  /// The measured window: only spans starting inside it are summarised.
  void SetWindow(int64_t start_ns, int64_t end_ns) {
    window_start_ns_ = start_ns;
    window_end_ns_ = end_ns;
  }
  /// Spans recorded so far that start inside the window. Call after every
  /// recording thread has stopped.
  std::vector<SpanRecord> WindowSpans() const;
  /// Writes every recorded span as one JSON object per line; returns the
  /// number written, or -1 when the file cannot be written.
  int64_t WriteSpans(const std::string& path) const;

  /// Whole-run totals the transport decorator keeps for every call.
  std::atomic<int64_t> call_bytes{0};   // request + response payload bytes
  std::atomic<int64_t> fetch_bytes{0};  // kafka.fetch response bytes

  /// Root scope of one operation: decides whether it is sampled and, if so,
  /// records it as a kOp span. A null tracer makes it a no-op.
  class OpScope {
   public:
    OpScope(Tracer* tracer, const char* name);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Tracer* const tracer_;
    SpanRecord span_;
    uint64_t saved_parent_ = 0;
  };

  /// A kTier span; opened only by TimeTier, on a sampled thread.
  class TierScope {
   public:
    TierScope(Tracer* tracer, const char* name);
    ~TierScope();
    TierScope(const TierScope&) = delete;
    TierScope& operator=(const TierScope&) = delete;

   private:
    Tracer* const tracer_;
    SpanRecord span_;
    uint64_t saved_parent_ = 0;
    int64_t* saved_calls_ = nullptr;
    int64_t child_calls_ = 0;
  };

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
  };
  Buffer* ThreadBuffer();

  const int sample_every_;
  std::atomic<uint64_t> next_id_{0};
  int64_t window_start_ns_ = 0;
  int64_t window_end_ns_ = 0;

  mutable lidi::Mutex mu_{"lidibench.tracer"};
  std::vector<std::unique_ptr<Buffer>> buffers_ LIDI_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<std::string>> names_
      LIDI_GUARDED_BY(mu_);
};

/// Runs fn, as a tier span named `name` when `tracer` is set and the thread
/// is sampled. The untraced run passes nullptr and pays one branch.
template <typename Fn>
auto TimeTier(Tracer* tracer, const char* name, Fn&& fn) -> decltype(fn()) {
  if (tracer == nullptr || !tracer->Sampled()) return fn();
  Tracer::TierScope scope(tracer, name);
  return fn();
}

}  // namespace lidibench

#endif  // LIDIBENCH_TRACER_H_
