// serving: front ends issuing many small RPCs against Voldemort and
// Espresso. net, voldemort and espresso do almost all the work; io, kafka
// and databus do none.
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "avro/datum.h"
#include "bench.h"
#include "checks.h"
#include "espresso/replication.h"
#include "espresso/router.h"
#include "espresso/schema.h"
#include "espresso/storage_node.h"
#include "helix/helix.h"
#include "net/address.h"
#include "timed_transport.h"
#include "tracer.h"
#include "voldemort/client.h"
#include "voldemort/cluster.h"
#include "voldemort/metadata.h"
#include "voldemort/server.h"
#include "zk/zookeeper.h"

namespace lidibench {

namespace {

using lidi::Status;
namespace net = lidi::net;
namespace voldemort = lidi::voldemort;
namespace espresso = lidi::espresso;

/// Front ends, each with its own users, StoreClient and Router, and one
/// request in flight. One keeps the load below the host's cores: with two
/// busy loops beside the run, four front ends lost 30% of their throughput,
/// two lost 17% and one lost none, so the figure measures the request path
/// rather than the scheduler.
constexpr int kFrontEnds = 1;
constexpr int kVoldemortNodes = 3;
constexpr int kVoldemortPartitions = 12;
constexpr int kEspressoNodes = 2;
constexpr int kEspressoPartitions = 8;
constexpr uint64_t kKeysPerCaller = 4000;
constexpr size_t kValueBytes = 128;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kMailboxesPerCaller = 50;
constexpr uint64_t kDocsPerMailbox = 20;
constexpr int kLabels = 8;
constexpr size_t kBodyBytes = 200;

/// Share of requests that go to Voldemort (get:put 60:40); the rest go to
/// Espresso. Every caller reads and queries its own mailboxes; only caller 0
/// writes documents (see the fencing race in CHANGES.md).
constexpr double kVoldemortShare = 0.7;
constexpr double kVoldemortGetShare = 0.6;

std::string KeyOf(int caller, uint64_t i) {
  return "c" + std::to_string(caller) + ":u" + std::to_string(i);
}
std::string MailboxOf(int caller, uint64_t m) {
  return "c" + std::to_string(caller) + "m" + std::to_string(m);
}
std::string LabelOf(uint64_t l) { return "l" + std::to_string(l); }

/// One front end: its clients, its users and its model of what it wrote.
struct Caller {
  int id = 0;
  Rng rng{0};
  std::unique_ptr<voldemort::StoreClient> store;
  std::unique_ptr<espresso::Router> router;
  std::map<std::string, std::string> values;  // last acknowledged per key
  std::map<std::string, DocModel> docs;       // by document key
  // mailbox -> label -> document keys
  std::map<std::string, std::map<std::string, std::set<std::string>>> labels;

  std::vector<int64_t> latencies;
  std::vector<int64_t> completions;
  int64_t window_ops = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t queries = 0;
  int64_t query_docs = 0;
  std::vector<std::string> errors;

  void Error(std::string what) { NoteError(&errors, std::move(what)); }
};

lidi::avro::DatumPtr MakeDoc(const DocModel& model, const std::string& body) {
  auto doc = lidi::avro::Datum::Record("Msg");
  doc->SetField("label", lidi::avro::Datum::String(model.label));
  doc->SetField("version", lidi::avro::Datum::Long(model.version));
  doc->SetField("body", lidi::avro::Datum::String(body));
  return doc;
}

/// Writes a document through `router` and, once acknowledged, records it
/// in its owner's model.
Status PutDoc(espresso::Router* router, Rng* rng, Caller* owner,
              const std::string& key, const DocModel& model, Tracer* tracer) {
  const auto doc = MakeDoc(model, rng->Bytes(kBodyBytes));
  auto etag = TimeTier(tracer, "espresso.put", [&] {
    return router->PutDocument("/mail/msgs/" + key, *doc);
  });
  if (!etag.ok()) return etag.status();
  const std::string mailbox = key.substr(0, key.find('/'));
  auto old = owner->docs.find(key);
  if (old != owner->docs.end()) {
    owner->labels[mailbox][old->second.label].erase(key);
  }
  owner->docs[key] = model;
  owner->labels[mailbox][model.label].insert(key);
  return Status::OK();
}

/// One request; returns false when it failed.
bool Step(Caller* c, const Zipf& key_zipf, const Zipf& mailbox_zipf,
          Tracer* tracer) {
  const double kind = c->rng.Unit();
  if (kind < kVoldemortShare) {
    const std::string key = KeyOf(c->id, key_zipf.Sample(&c->rng));
    if (c->rng.Unit() < kVoldemortGetShare) {
      auto got = TimeTier(tracer, "voldemort.get",
                          [&] { return c->store->Get(key); });
      if (!got.ok() && !got.status().IsNotFound()) {
        c->Error("voldemort get " + key + ": " + got.status().ToString());
        return false;
      }
      std::vector<std::string> values;
      if (got.ok()) {
        for (const auto& v : got.value()) values.push_back(v.value);
      }
      auto it = c->values.find(key);
      const std::string err = CheckVoldemortRead(
          key,
          it == c->values.end() ? std::nullopt
                                : std::optional<std::string>(it->second),
          !got.ok(), values);
      if (!err.empty()) c->Error(err);
      return true;
    }
    std::string value = c->rng.Bytes(kValueBytes);
    Status s = TimeTier(tracer, "voldemort.put",
                        [&] { return c->store->PutValue(key, value); });
    if (!s.ok()) {
      c->Error("voldemort put " + key + ": " + s.ToString());
      return false;
    }
    c->values[key] = std::move(value);
    return true;
  }
  const std::string mailbox =
      MailboxOf(c->id, mailbox_zipf.Sample(&c->rng));
  const double op = c->rng.Unit();
  const bool writer = c->id == 0;
  if (writer && op < 0.3) {
    const std::string key =
        mailbox + "/d" + std::to_string(c->rng.Uniform(kDocsPerMailbox));
    DocModel model{c->docs[key].version + 1, LabelOf(c->rng.Uniform(kLabels))};
    Status s = PutDoc(c->router.get(), &c->rng, c, key, model, tracer);
    if (!s.ok()) {
      c->Error("espresso put " + key + ": " + s.ToString());
      return false;
    }
    return true;
  }
  if (op < (writer ? 0.6 : 0.4)) {
    const std::string label = LabelOf(c->rng.Uniform(kLabels));
    const std::string uri = "/mail/msgs/" + mailbox + "?query=label:" + label;
    auto got = TimeTier(tracer, "espresso.query",
                        [&] { return c->router->Query(uri); });
    if (!got.ok()) {
      c->Error("espresso query " + uri + ": " + got.status().ToString());
      return false;
    }
    std::vector<std::string> keys;
    for (const auto& [key, doc] : got.value()) keys.push_back(key);
    ++c->queries;
    c->query_docs += static_cast<int64_t>(keys.size());
    const std::string err =
        CheckQueryResult(uri, c->labels[mailbox][label], keys);
    if (!err.empty()) c->Error(err);
    return true;
  }
  const std::string key =
      mailbox + "/d" + std::to_string(c->rng.Uniform(kDocsPerMailbox));
  const std::string uri = "/mail/msgs/" + key;
  auto got = TimeTier(tracer, "espresso.get",
                      [&] { return c->router->GetDocument(uri); });
  if (!got.ok() && !got.status().IsNotFound()) {
    c->Error("espresso get " + uri + ": " + got.status().ToString());
    return false;
  }
  int64_t version = 0;
  std::string label;
  if (got.ok()) {
    auto v = got.value()->GetField("version");
    auto l = got.value()->GetField("label");
    if (v != nullptr) version = v->long_value();
    if (l != nullptr) label = l->string_value();
  }
  auto it = c->docs.find(key);
  const std::string err = CheckDocumentRead(
      uri,
      it == c->docs.end() ? std::nullopt : std::optional<DocModel>(it->second),
      !got.ok(), version, label);
  if (!err.empty()) c->Error(err);
  return true;
}

}  // namespace

RunResult RunServing(const RunConfig& config) {
  RunResult result;
  RunTransport wiring(config.tracer);
  net::Transport* transport = wiring.get();
  const lidi::Clock* clock = lidi::SystemClock::Default();

  // --- Voldemort: N=3, R=2, W=2 over three servers.
  std::vector<voldemort::Node> nodes;
  for (int i = 0; i < kVoldemortNodes; ++i) {
    nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  }
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, kVoldemortPartitions));
  voldemort::VoldemortServerOptions vopts;
  vopts.replication_factor = 3;
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> servers;
  for (int i = 0; i < kVoldemortNodes; ++i) {
    servers.push_back(std::make_unique<voldemort::VoldemortServer>(
        i, metadata, transport, vopts));
    MustOk(servers.back()->AddStore("profiles"), "voldemort AddStore");
  }
  const voldemort::StoreDefinition def{"profiles", 3, 2, 2};

  // --- Espresso: a mailbox database under Helix, one master per partition.
  lidi::zk::ZooKeeper zookeeper;
  espresso::SchemaRegistry schemas;
  espresso::DatabaseSchema mail;
  mail.name = "mail";
  mail.num_partitions = kEspressoPartitions;
  mail.replication_factor = 2;
  MustOk(schemas.CreateDatabase(mail), "espresso CreateDatabase");
  MustOk(schemas.CreateTable("mail", {"msgs", 1}), "espresso CreateTable");
  MustOk(schemas
             .PostDocumentSchema("mail", "msgs", R"({
    "type":"record","name":"Msg","fields":[
      {"name":"label","type":"string","indexed":true},
      {"name":"version","type":"long"},
      {"name":"body","type":"string"}]})")
             .status(),
         "espresso PostDocumentSchema");
  espresso::EspressoRelay espresso_relay;
  lidi::helix::HelixController controller("espresso", &zookeeper);
  MustOk(controller.AddResource({"mail", kEspressoPartitions, 2}),
         "helix AddResource");
  std::vector<std::unique_ptr<espresso::StorageNode>> storage_nodes;
  for (int i = 0; i < kEspressoNodes; ++i) {
    auto node = std::make_unique<espresso::StorageNode>(
        net::MakeAddress(net::Tier::kEspressoNode, i), &schemas,
        &espresso_relay, transport, clock);
    espresso::StorageNode* raw = node.get();
    raw->SetMasterLookup([&controller](const std::string& db, int p) {
      return controller.MasterOf(db, p);
    });
    MustOk(controller
               .ConnectParticipant(raw->name(),
                                   [raw](const lidi::helix::Transition& t) {
                                     return raw->HandleTransition(t);
                                   })
               .status(),
           "helix ConnectParticipant");
    storage_nodes.push_back(std::move(node));
  }
  controller.RebalanceToConvergence();

  const int callers = kFrontEnds;
  std::vector<Caller> front_ends(callers);
  for (int c = 0; c < callers; ++c) {
    Caller& fe = front_ends[c];
    fe.id = c;
    fe.rng = Rng(StreamSeed(config.seed, c));
    fe.store = std::make_unique<voldemort::StoreClient>(
        "frontend-" + std::to_string(c), def, metadata, transport, clock);
    fe.router = std::make_unique<espresso::Router>(
        "router-" + std::to_string(c), &schemas, &controller, transport);
  }
  result.topology_done_ns = NowNs();

  // --- Preload: every caller's keys (in parallel, one thread per caller),
  // then every mailbox, written by caller 0 alone.
  {
    std::vector<std::thread> loaders;
    for (int c = 0; c < callers; ++c) {
      loaders.emplace_back([&, c] {
        Caller& fe = front_ends[c];
        for (uint64_t i = 0; i < kKeysPerCaller; ++i) {
          const std::string key = KeyOf(c, i);
          std::string value = fe.rng.Bytes(kValueBytes);
          Status s = fe.store->Put(key, voldemort::Versioned{{}, value});
          if (!s.ok()) {
            fe.Error("preload " + key + ": " + s.ToString());
            continue;
          }
          fe.values[key] = std::move(value);
        }
        if (c != 0) return;
        Rng doc_rng(StreamSeed(config.seed, 1000));
        for (int owner = 0; owner < callers; ++owner) {
          for (uint64_t m = 0; m < kMailboxesPerCaller; ++m) {
            for (uint64_t d = 0; d < kDocsPerMailbox; ++d) {
              const std::string key =
                  MailboxOf(owner, m) + "/d" + std::to_string(d);
              const DocModel model{1, LabelOf(doc_rng.Uniform(kLabels))};
              Status s = PutDoc(fe.router.get(), &doc_rng, &front_ends[owner],
                                key, model, nullptr);
              if (!s.ok()) fe.Error("preload " + key + ": " + s.ToString());
            }
          }
        }
      });
    }
    for (auto& t : loaders) t.join();
  }
  result.SetupDone();

  // --- Closed loop: each front end waits for every reply.
  const Zipf key_zipf(kKeysPerCaller, kZipfTheta);
  const Zipf mailbox_zipf(kMailboxesPerCaller, kZipfTheta);
  const Window window = Window::Plan(config.seconds);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      Caller& fe = front_ends[c];
      fe.latencies.reserve(1 << 20);
      fe.completions.reserve(1 << 20);
      while (!stop.load(std::memory_order_relaxed)) {
        Tracer::OpScope op(config.tracer, "serving.request");
        const int64_t start = NowNs();
        const bool ok = Step(&fe, key_zipf, mailbox_zipf, config.tracer);
        const int64_t end = NowNs();
        ++fe.attempted;
        if (!ok) ++fe.failed;
        if (ok && window.Contains(end)) {
          fe.latencies.push_back(end - start);
          fe.completions.push_back(end);
          ++fe.window_ops;
        }
      }
    });
  }
  MeasureWindow(config, window, wiring.registry(), &result);
  stop = true;
  for (auto& t : threads) t.join();

  int64_t queries = 0, query_docs = 0;
  for (Caller& fe : front_ends) {
    result.attempted += fe.attempted;
    result.failed += fe.failed;
    result.window_ops += fe.window_ops;
    result.latencies_ns.insert(result.latencies_ns.end(), fe.latencies.begin(),
                               fe.latencies.end());
    result.completions_ns.insert(result.completions_ns.end(),
                                 fe.completions.begin(), fe.completions.end());
    for (auto& e : fe.errors) result.Fail(std::move(e));
    queries += fe.queries;
    query_docs += fe.query_docs;
  }
  result.layer["espresso.docs_per_query"] =
      queries == 0 ? 0 : static_cast<double>(query_docs) / queries;
  return result;
}

}  // namespace lidibench
