// change_capture: committers write multi-row transactions to a durable
// source database (binlog sync=always, group commit); a relay tails it and
// two Databus clients consume from the relay over TCP. sqlstore, io and
// databus do the work; concurrent committers are what a fix of the binlog
// commit serialization needs in order to show.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "databus/client.h"
#include "databus/relay.h"
#include "net/address.h"
#include "sqlstore/database.h"
#include "timed_transport.h"
#include "tracer.h"

namespace lidibench {

namespace {

using lidi::Status;
namespace net = lidi::net;
namespace databus = lidi::databus;
namespace sqlstore = lidi::sqlstore;

constexpr char kTable[] = "members";
constexpr uint64_t kKeysPerCommitter = 5000;
/// A member edit touches one to eight rows (uniform).
constexpr int kMaxRowsPerTxn = 8;
constexpr size_t kValueBytes = 48;
/// Transactions committed during set-up, consumed before the load starts.
constexpr int kPreloadTxns = 2000;
constexpr int kClients = 2;
constexpr std::chrono::microseconds kIdle{200};
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;

/// The measured window as the pipeline thread sees it: the main thread
/// publishes it when set-up ends, while the pipeline is already running.
class PublishedWindow {
 public:
  /// Stores the end first: a reader that sees the new start sees the new
  /// end too.
  void Publish(const Window& window) {
    end_ns_.store(window.end_ns);
    start_ns_.store(window.start_ns);
  }
  bool Contains(int64_t t) const {
    return t >= start_ns_.load() && t < end_ns_.load();
  }

 private:
  std::atomic<int64_t> start_ns_{INT64_MAX};
  std::atomic<int64_t> end_ns_{INT64_MIN};
};

/// A Databus consumer that materializes the table, checks the stream's
/// transaction structure, and times each transaction from its commit call
/// (the rows carry the commit start time) to its delivery here.
class MaterializingConsumer : public databus::Consumer {
 public:
  explicit MaterializingConsumer(const PublishedWindow* window)
      : window_(window) {}

  Status OnEvent(const databus::Event& event) override {
    checker.Observe(event.scn, event.end_of_txn);
    if (event.op == databus::Event::Op::kDelete) {
      table.erase(event.key);
    } else {
      table[event.key] = event.payload;
    }
    if (event.end_of_txn) {
      const int64_t now = NowNs();
      auto row = sqlstore::DecodeRow(event.payload);
      if (row.ok() && window_->Contains(now)) {
        auto t = row.value().find("t");
        if (t != row.value().end()) {
          latencies.push_back(now - std::stoll(t->second));
          completions.push_back(now);
        }
      }
    }
    return Status::OK();
  }

  TxnStreamChecker checker;
  std::map<std::string, std::string> table;  // key -> encoded row
  std::vector<int64_t> latencies;
  std::vector<int64_t> completions;

 private:
  const PublishedWindow* const window_;
};

struct Committer {
  int id = 0;
  Rng rng{0};
  std::map<int64_t, int> rows_per_scn;
  int64_t window_commits = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

/// Commits one transaction of `rows` rows; returns false when it failed.
bool CommitOne(sqlstore::Database* source, Committer* c, int rows,
               int64_t txn_index, const Window& window, Tracer* tracer) {
  sqlstore::Database::Transaction txn = source->Begin();
  const std::string start = std::to_string(NowNs());
  for (int r = 0; r < rows; ++r) {
    const std::string key = "c" + std::to_string(c->id) + ":k" +
                            std::to_string(c->rng.Uniform(kKeysPerCommitter));
    txn.Put(kTable, key,
            {{"v", c->rng.Bytes(kValueBytes)},
             {"c", std::to_string(c->id)},
             {"n", std::to_string(txn_index)},
             {"t", start}});
  }
  ++c->attempted;
  auto scn = TimeTier(tracer, "sqlstore.commit", [&] { return txn.Commit(); });
  if (!scn.ok()) {
    ++c->failed;
    NoteError(&c->errors, "commit: " + scn.status().ToString());
    return false;
  }
  c->rows_per_scn[scn.value()] = rows;
  if (window.Contains(NowNs())) ++c->window_commits;
  return true;
}

}  // namespace

RunResult RunChangeCapture(const RunConfig& config) {
  RunResult result;
  RunTransport wiring(config.tracer);
  net::Transport* transport = wiring.get();

  sqlstore::BinlogOptions binlog;
  binlog.data_dir = config.data_dir + "/binlog";
  binlog.sync = lidi::io::SyncPolicy::kAlways;
  binlog.group_commit = true;
  binlog.metrics = wiring.registry();
  sqlstore::Database source("source", binlog);
  MustOk(source.binlog().recovery_status(), "sqlstore binlog");
  MustOk(source.CreateTable(kTable), "sqlstore CreateTable");
  databus::Relay relay(net::MakeAddress(net::Tier::kDatabusRelay, 0), &source,
                       transport);
  Window window{};  // set once the load starts; empty during set-up
  PublishedWindow published;
  std::vector<std::unique_ptr<MaterializingConsumer>> consumers;
  std::vector<std::unique_ptr<databus::DatabusClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    consumers.push_back(std::make_unique<MaterializingConsumer>(&published));
    clients.push_back(std::make_unique<databus::DatabusClient>(
        "databus-client-" + std::to_string(i), relay.address(), "", transport,
        consumers.back().get()));
  }
  result.topology_done_ns = NowNs();

  int64_t relay_polls = 0, relay_events = 0;
  int64_t client_polls = 0, useful_client_polls = 0, client_events = 0;
  int64_t max_client_batch = 0;
  // One pipeline step: the relay pulls from the source, then each client
  // pulls from the relay. Returns the events moved.
  auto pipeline_step = [&]() -> lidi::Result<int64_t> {
    Tracer::OpScope op(config.tracer, "change_capture.pipeline");
    auto ingested = TimeTier(config.tracer, "databus.relay_poll",
                             [&] { return relay.PollOnce(); });
    if (!ingested.ok()) return ingested.status();
    ++relay_polls;
    relay_events += ingested.value();
    int64_t moved = ingested.value();
    for (auto& client : clients) {
      auto delivered = TimeTier(config.tracer, "databus.client_poll",
                                [&] { return client->PollOnce(); });
      if (!delivered.ok()) return delivered.status();
      ++client_polls;
      if (delivered.value() > 0) ++useful_client_polls;
      client_events += delivered.value();
      max_client_batch = std::max(max_client_batch, delivered.value());
      moved += delivered.value();
    }
    return moved;
  };
  auto delivered_scn = [&] {
    int64_t low = INT64_MAX;
    for (const auto& client : clients) {
      low = std::min(low, client->checkpoint_scn());
    }
    return low;
  };

  // --- One pipeline thread runs the relay and both clients beside the
  // source from the start of set-up, as a deployment runs them. Once the
  // committers stop it drains to the source's head and exits.
  std::atomic<int64_t> caught_up_to{0};
  std::atomic<bool> committers_done{false};
  std::thread pipeline([&] {
    int64_t deadline_ns = INT64_MAX;
    for (;;) {
      const bool done = committers_done.load();
      if (done && deadline_ns == INT64_MAX) {
        deadline_ns = NowNs() + kDrainTimeoutNs;
      }
      auto moved = pipeline_step();
      if (!moved.ok()) {
        result.Fail("pipeline: " + moved.status().ToString());
        return;
      }
      const int64_t low = delivered_scn();
      caught_up_to.store(low);
      if (done && (low >= source.binlog().LastScn() || NowNs() > deadline_ns)) {
        return;
      }
      if (moved.value() == 0) std::this_thread::sleep_for(kIdle);
    }
  });

  // --- Preload: transactions the pipeline consumes before the load starts.
  // Two committers contend for the commit lock, which is what a fix of the
  // binlog commit serialization needs; a third added no throughput (the
  // lock serializes them) and doubled the run-to-run spread.
  const int committers = std::max(1, std::min(2, config.max_threads - 1));
  std::vector<Committer> states(committers + 1);  // last: set-up committer
  for (int i = 0; i <= committers; ++i) {
    states[i].id = i;
    states[i].rng = Rng(StreamSeed(config.seed, i));
  }
  Committer& loader = states[committers];
  for (int t = 0; t < kPreloadTxns; ++t) {
    const int rows = 1 + static_cast<int>(loader.rng.Uniform(kMaxRowsPerTxn));
    CommitOne(&source, &loader, rows, t, window, nullptr);
  }
  const int64_t preload_deadline_ns = NowNs() + kDrainTimeoutNs;
  while (caught_up_to.load() < source.binlog().LastScn() &&
         NowNs() < preload_deadline_ns) {
    std::this_thread::sleep_for(kIdle);
  }
  result.SetupDone();

  // --- Load: closed-loop committers.
  window = Window::Plan(config.seconds);
  published.Publish(window);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < committers; ++i) {
    threads.emplace_back([&, i] {
      Committer& c = states[i];
      for (int64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        Tracer::OpScope op(config.tracer, "change_capture.commit");
        const int rows = 1 + static_cast<int>(c.rng.Uniform(kMaxRowsPerTxn));
        CommitOne(&source, &c, rows, n, window, config.tracer);
      }
    });
  }
  MeasureWindow(config, window, wiring.registry(), &result);
  stop = true;
  for (auto& t : threads) t.join();
  committers_done = true;
  pipeline.join();

  // --- Checks: stream structure against the committers' model, and each
  // client's table against a scan of the source.
  std::map<int64_t, int> rows_per_scn;
  int64_t window_commits = 0;
  for (const Committer& c : states) {
    window_commits += c.window_commits;
    rows_per_scn.insert(c.rows_per_scn.begin(), c.rows_per_scn.end());
    result.attempted += c.attempted;
    result.failed += c.failed;
    for (const auto& e : c.errors) result.Fail(e);
  }
  std::map<std::string, std::string> scanned;
  MustOk(source.Scan(kTable,
                     [&](const std::string& key, const sqlstore::Row& row) {
                       std::string encoded;
                       sqlstore::EncodeRow(row, &encoded);
                       scanned[key] = std::move(encoded);
                       return true;
                     }),
         "sqlstore Scan");
  const int64_t last_scn = source.binlog().LastScn();
  for (int i = 0; i < kClients; ++i) {
    MaterializingConsumer& mc = *consumers[i];
    for (auto& e : mc.checker.Finish(last_scn, rows_per_scn)) result.Fail(e);
    for (auto& e : CheckMaterialized("client " + std::to_string(i), mc.table,
                                     scanned)) {
      result.Fail(e);
    }
    result.latencies_ns.insert(result.latencies_ns.end(),
                               mc.latencies.begin(), mc.latencies.end());
    result.completions_ns.insert(result.completions_ns.end(),
                                 mc.completions.begin(), mc.completions.end());
  }
  // An op is one transaction delivered to the clients.
  result.window_ops =
      static_cast<int64_t>(result.latencies_ns.size()) / kClients;
  result.layer["databus.events_per_relay_poll"] =
      Ratio(static_cast<double>(relay_events), static_cast<double>(relay_polls));
  result.layer["databus.events_per_client_poll"] = Ratio(
      static_cast<double>(client_events), static_cast<double>(client_polls));
  result.layer["databus.useful_poll_ratio"] =
      Ratio(static_cast<double>(useful_client_polls),
            static_cast<double>(client_polls));
  result.layer["databus.max_events_per_client_poll"] =
      static_cast<double>(max_client_batch);
  if (config.tracer != nullptr) {
    const lidi::obs::Labels binlog_layer{{"layer", "sqlstore.binlog"}};
    result.layer["io.binlog_commits_per_sync"] =
        Ratio(static_cast<double>(window_commits),
              CounterDelta(result, "io.sync.count", &binlog_layer));
  }
  return result;
}

}  // namespace lidibench
