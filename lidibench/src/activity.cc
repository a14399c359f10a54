// activity: producers publish small batched tracking events to one durable
// broker (sync=always, group commit) while one consumer-group member drains
// the topic. The log, fdatasync and batching do the work; a few large RPCs
// carry many events, so a net gain should leave this workload flat.
#include <chrono>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/message.h"
#include "kafka/producer.h"
#include "timed_transport.h"
#include "tracer.h"
#include "zk/zookeeper.h"

namespace lidibench {

namespace {

using lidi::Status;
namespace net = lidi::net;
namespace kafka = lidi::kafka;

constexpr char kTopic[] = "tracking";
constexpr int kPartitions = 8;
/// Events per produce request: each producer ships a batch of this many
/// events keyed by one member, so a batch lands on one partition.
constexpr int kBatch = 20;
constexpr size_t kFillerBytes = 80;
constexpr uint64_t kMembers = 100000;
/// Batches produced during set-up (acknowledged, consumed before the load).
constexpr int kPreloadBatches = 2000;
constexpr uint32_t kPreloadProducer = 1000;
/// Consumer back-off after a round of empty polls.
constexpr std::chrono::microseconds kIdle{200};
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;

struct ProducerState {
  uint32_t id = 0;
  Rng rng{0};
  std::unique_ptr<kafka::Producer> producer;
  uint64_t next_seq = 0;
  uint64_t acked = 0;  // sequences [0, acked) acknowledged
  uint64_t acked_fingerprints = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

/// Publishes one batch of kBatch events under one member key. The batch is
/// acknowledged when the Send that fills it returns OK (the producer ships a
/// full batch in one durable produce request).
bool ProduceBatch(ProducerState* p, Tracer* tracer) {
  const std::string key = "member-" + std::to_string(p->rng.Uniform(kMembers));
  uint64_t fingerprints = 0;
  Status s;
  for (int i = 0; i < kBatch; ++i) {
    const TrackingEvent event{p->id, p->next_seq + i, NowNs()};
    const std::string payload =
        EncodeTrackingEvent(event, p->rng.Bytes(kFillerBytes));
    fingerprints += Fingerprint(payload);
    if (i + 1 < kBatch) {
      s = p->producer->Send(kTopic, key, payload);
    } else {
      s = TimeTier(tracer, "kafka.send",
                   [&] { return p->producer->Send(kTopic, key, payload); });
    }
    if (!s.ok()) break;
  }
  p->attempted += kBatch;
  p->next_seq += kBatch;
  if (!s.ok()) {
    p->failed += kBatch;
    NoteError(&p->errors, "produce: " + s.ToString());
    return false;
  }
  p->acked = p->next_seq;
  p->acked_fingerprints += fingerprints;
  return true;
}

}  // namespace

RunResult RunActivity(const RunConfig& config) {
  RunResult result;
  RunTransport wiring(config.tracer);
  net::Transport* transport = wiring.get();
  const lidi::Clock* clock = lidi::SystemClock::Default();

  lidi::zk::ZooKeeper zookeeper;
  kafka::BrokerOptions bopts;
  bopts.log.data_dir = config.data_dir + "/kafka";
  bopts.log.sync = lidi::io::SyncPolicy::kAlways;
  bopts.log.group_commit = true;
  bopts.log.metrics = wiring.registry();
  kafka::Broker broker(0, &zookeeper, transport, clock, bopts);
  MustOk(broker.CreateTopic(kTopic, kPartitions), "kafka CreateTopic");

  // Two producers: with three, the run-to-run spread of throughput and
  // latency doubled (to about 0.10) on a 4-core host.
  const int producers = std::max(1, std::min(2, config.max_threads - 1));
  std::vector<ProducerState> states(producers + 1);  // last: set-up producer
  for (int i = 0; i <= producers; ++i) {
    ProducerState& p = states[i];
    p.id = i < producers ? static_cast<uint32_t>(i) : kPreloadProducer;
    p.rng = Rng(StreamSeed(config.seed, p.id));
    kafka::ProducerOptions popts;
    popts.batch_size = kBatch;
    popts.seed = config.seed;
    p.producer = std::make_unique<kafka::Producer>(
        "producer-" + std::to_string(p.id), &zookeeper, transport, popts);
  }
  kafka::Consumer consumer("consumer-0", "tracking-readers", &zookeeper,
                           transport);
  MustOk(consumer.Subscribe(kTopic), "kafka Subscribe");
  const std::vector<kafka::TopicPartition> owned =
      consumer.OwnedPartitions(kTopic);
  if (static_cast<int>(owned.size()) != kPartitions) {
    MustOk(Status::Internal("consumer owns " + std::to_string(owned.size()) +
                            " partitions"),
           "kafka Subscribe");
  }
  // One stream per owned partition: stream i serves owned[i] alone, so
  // every delivered message is attributed to its partition.
  auto streams = consumer.CreateMessageStreams(kTopic, kPartitions);
  result.topology_done_ns = NowNs();

  DeliveryLedger ledger;
  int64_t polls = 0, useful_polls = 0, messages = 0;
  std::vector<int64_t> latencies, completions;
  latencies.reserve(1 << 22);
  completions.reserve(1 << 22);
  int64_t window_ops = 0;
  Window window{};  // set once the load starts; empty during set-up
  // One round over every partition; returns the messages delivered.
  auto poll_round = [&]() -> lidi::Result<int64_t> {
    int64_t delivered = 0;
    for (int i = 0; i < kPartitions; ++i) {
      Tracer::OpScope op(config.tracer, "activity.poll");
      auto batch = TimeTier(config.tracer, "kafka.poll",
                            [&] { return streams[i].Poll(); });
      if (!batch.ok()) return batch.status();
      const int64_t now = NowNs();
      ++polls;
      if (batch.value().empty()) continue;
      ++useful_polls;
      for (const kafka::Message& m : batch.value()) {
        ledger.Deliver(owned[i].partition, m.payload,
                       m.offset + kafka::MessageEntrySize(
                                      static_cast<int64_t>(m.payload.size())));
        TrackingEvent event;
        if (window.Contains(now) && DecodeTrackingEvent(m.payload, &event)) {
          latencies.push_back(now - event.created_ns);
          completions.push_back(now);
          ++window_ops;
        }
      }
      const auto n = static_cast<int64_t>(batch.value().size());
      messages += n;
      delivered += n;
    }
    return delivered;
  };
  // Drains until `target` events were delivered or the deadline passes.
  auto drain = [&](int64_t target, int64_t deadline_ns) {
    while (ledger.delivered() < target && NowNs() < deadline_ns) {
      auto got = poll_round();
      if (!got.ok()) {
        result.Fail("consumer poll: " + got.status().ToString());
        return;
      }
      if (got.value() == 0) std::this_thread::sleep_for(kIdle);
    }
  };

  // --- Preload: a backlog produced and consumed during set-up.
  for (int b = 0; b < kPreloadBatches; ++b) {
    if (!ProduceBatch(&states[producers], nullptr)) break;
  }
  drain(static_cast<int64_t>(states[producers].acked), NowNs() + kDrainTimeoutNs);
  result.SetupDone();

  // --- Load: closed-loop producers; the consumer drains concurrently.
  window = Window::Plan(config.seconds);
  std::atomic<bool> stop{false};
  std::atomic<bool> producers_done{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < producers; ++i) {
    threads.emplace_back([&, i] {
      while (!stop.load(std::memory_order_relaxed)) {
        Tracer::OpScope op(config.tracer, "activity.produce");
        ProduceBatch(&states[i], config.tracer);
      }
    });
  }
  std::thread consumer_thread([&] {
    while (!producers_done.load()) {
      auto got = poll_round();
      if (!got.ok()) {
        result.Fail("consumer poll: " + got.status().ToString());
        return;
      }
      if (got.value() == 0) std::this_thread::sleep_for(kIdle);
    }
  });
  MeasureWindow(config, window, wiring.registry(), &result);
  stop = true;
  for (auto& t : threads) t.join();
  producers_done = true;
  consumer_thread.join();

  AckLedger acks;
  for (const ProducerState& p : states) {
    acks.acked[p.id] = p.acked;
    acks.total += static_cast<int64_t>(p.acked);
    acks.fingerprint_sum += p.acked_fingerprints;
    result.attempted += p.attempted;
    result.failed += p.failed;
    for (const auto& e : p.errors) result.Fail(e);
  }
  drain(acks.total, NowNs() + kDrainTimeoutNs);

  std::map<int, int64_t> durable;
  for (const auto& tp : owned) {
    durable[tp.partition] =
        broker.GetLog(kTopic, tp.partition)->durable_end_offset();
  }
  for (auto& e : CheckActivity(acks, ledger, durable)) result.Fail(e);

  result.window_ops = window_ops;
  result.latencies_ns = std::move(latencies);
  result.completions_ns = std::move(completions);
  result.layer["kafka.msgs_per_poll"] =
      Ratio(static_cast<double>(messages), static_cast<double>(polls));
  result.layer["kafka.useful_poll_ratio"] =
      Ratio(static_cast<double>(useful_polls), static_cast<double>(polls));
  if (config.tracer != nullptr) {
    const lidi::obs::Labels log_layer{{"layer", "kafka.log"}};
    const double produces = CounterDelta(result, "kafka.produce.count");
    result.layer["kafka.msgs_per_produce"] =
        Ratio(CounterDelta(result, "kafka.produce.messages"), produces);
    result.layer["io.kafka_appends_per_sync"] =
        Ratio(produces, CounterDelta(result, "io.sync.count", &log_layer));
    result.layer["kafka.copied_bytes_per_fetched_byte"] =
        Ratio(CounterDelta(result, "kafka.fetch.bytes_copied"),
              static_cast<double>(result.window_fetch_bytes));
  }
  return result;
}

}  // namespace lidibench
