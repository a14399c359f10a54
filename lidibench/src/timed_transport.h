// A timing decorator over net::Transport for the traced run: every client
// call and every server handler is timed per method, and a call is paired
// with the handler it reached so transit time (call minus handler) is known
// per call.
#ifndef LIDIBENCH_TIMED_TRANSPORT_H_
#define LIDIBENCH_TIMED_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/sync.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "tracer.h"

namespace lidibench {

/// True while the interface still declares the per-endpoint stats surface.
template <typename T>
concept HasLegacyStats = requires(T& t, const std::string& address) {
  t.GetStats(address);
  t.ResetStats();
};

/// Base of a forwarding decorator over `Base`. While `Base` declares
/// GetStats/ResetStats as pure virtuals, the specialisation below forwards
/// them to the wrapped object; once they leave the interface the primary
/// template is chosen, declares neither, and the decorator still compiles.
template <typename Base, bool = HasLegacyStats<Base>>
class LegacyStatsForwarding : public Base {
 public:
  explicit LegacyStatsForwarding(Base* inner) : inner_(inner) {}

 protected:
  Base* const inner_;
};

template <typename Base>
class LegacyStatsForwarding<Base, true> : public Base {
 public:
  explicit LegacyStatsForwarding(Base* inner) : inner_(inner) {}

  auto GetStats(const std::string& address) const
      -> decltype(std::declval<const Base&>().GetStats(address)) override {
    return inner_->GetStats(address);
  }
  void ResetStats() override { inner_->ResetStats(); }

 protected:
  Base* const inner_;
};

/// Wraps a transport; tiers are constructed against the wrapper, so their
/// handlers are registered through it and their calls pass through it.
///
/// Pairing: callers in the benchmark each use their own `from` address and
/// have one call in flight, so the handler (which sees the caller through
/// net::CallerIdentity) reports its duration into the caller's slot. A call
/// whose `from` already has a call in flight is timed but left unpaired.
class TimedTransport final
    : public LegacyStatsForwarding<lidi::net::Transport> {
 public:
  TimedTransport(lidi::net::Transport* inner, Tracer* tracer)
      : LegacyStatsForwarding(inner), tracer_(tracer) {}

  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  lidi::obs::MetricsRegistry* metrics() const override {
    return inner_->metrics();
  }
  void RegisterPayload(const lidi::net::Address& addr,
                       const std::string& method,
                       lidi::net::PayloadHandler handler) override;
  void Unregister(const lidi::net::Address& addr) override {
    inner_->Unregister(addr);
  }

  using lidi::net::Transport::Call;
  using lidi::net::Transport::CallPayload;
  lidi::Result<lidi::PinnedSlice> CallPayload(
      const lidi::net::Address& from, const lidi::net::Address& to,
      const std::string& method, lidi::Slice request,
      const lidi::net::CallOptions& options) override;

  void Shutdown() override { inner_->Shutdown(); }
  int64_t total_calls() const override { return inner_->total_calls(); }

 private:
  struct Slot {
    std::atomic<uint64_t> client_span{0};  // sampled call in flight, or 0
    std::atomic<int64_t> handler_ns{-1};
    std::atomic<int> inflight{0};
  };
  Slot* SlotFor(const std::string& from);
  lidi::Result<lidi::PinnedSlice> SampledCall(
      const lidi::net::Address& from, const lidi::net::Address& to,
      const std::string& method, lidi::Slice request,
      const lidi::net::CallOptions& options);

  Tracer* const tracer_;
  lidi::Mutex mu_{"lidibench.timed_transport"};
  // Slots are never erased, so a Slot* stays valid for the wrapper's life.
  std::unordered_map<std::string, std::unique_ptr<Slot>> slots_
      LIDI_GUARDED_BY(mu_);
};

/// The transport every tier of one run is wired through: real localhost TCP
/// with one pooled connection per destination, behind the timing decorator
/// in the traced run.
class RunTransport {
 public:
  explicit RunTransport(Tracer* tracer)
      : tcp_(Options(), &registry_),
        timed_(tracer != nullptr
                   ? std::make_unique<TimedTransport>(&tcp_, tracer)
                   : nullptr) {}

  RunTransport(const RunTransport&) = delete;
  RunTransport& operator=(const RunTransport&) = delete;

  lidi::net::Transport* get() {
    return timed_ != nullptr ? static_cast<lidi::net::Transport*>(timed_.get())
                             : &tcp_;
  }
  lidi::obs::MetricsRegistry* registry() { return &registry_; }

 private:
  static lidi::net::TcpTransportOptions Options() {
    lidi::net::TcpTransportOptions options;
    options.connections_per_peer = 1;
    return options;
  }

  lidi::obs::MetricsRegistry registry_;
  lidi::net::TcpTransport tcp_;
  std::unique_ptr<TimedTransport> timed_;
};

}  // namespace lidibench

#endif  // LIDIBENCH_TIMED_TRANSPORT_H_
