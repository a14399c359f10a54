// Tests of the benchmark's own checks: each check is fed a correct output,
// which it must accept, and deliberately broken ones, which it must reject.
// No cluster is involved.
//
//   python3 lidibench/run.py --self-test
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "timed_transport.h"

namespace lidibench {
namespace {

int failures = 0;
int checks = 0;

void Expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::printf("FAILED: %s\n", what.c_str());
  }
}
void ExpectAccepts(const std::vector<std::string>& errors,
                   const std::string& what) {
  Expect(errors.empty(), what + (errors.empty() ? "" : ": " + errors[0]));
}
void ExpectRejects(const std::vector<std::string>& errors,
                   const std::string& what) {
  Expect(!errors.empty(), what + " was accepted");
}
std::vector<std::string> One(const std::string& error) {
  return error.empty() ? std::vector<std::string>{}
                       : std::vector<std::string>{error};
}

void ServingChecks() {
  ExpectAccepts(One(CheckVoldemortRead("k", std::string("v2"), false, {"v2"})),
                "voldemort read of the last acknowledged value");
  ExpectAccepts(One(CheckVoldemortRead("k", std::nullopt, true, {})),
                "voldemort NotFound for a key never written");
  ExpectRejects(One(CheckVoldemortRead("k", std::string("v2"), false, {"v1"})),
                "voldemort stale read");
  ExpectRejects(One(CheckVoldemortRead("k", std::string("v2"), true, {})),
                "voldemort lost acknowledged write");
  ExpectRejects(
      One(CheckVoldemortRead("k", std::string("v2"), false, {"v2", "v1"})),
      "voldemort siblings for a single-writer key");

  const DocModel model{3, "l1"};
  ExpectAccepts(One(CheckDocumentRead("/d", model, false, 3, "l1")),
                "espresso current document");
  ExpectRejects(One(CheckDocumentRead("/d", model, false, 2, "l0")),
                "espresso stale document");
  ExpectRejects(One(CheckDocumentRead("/d", model, true, 0, "")),
                "espresso lost document");

  const std::set<std::string> expected{"m/d1", "m/d4"};
  ExpectAccepts(One(CheckQueryResult("/q", expected, {"m/d4", "m/d1"})),
                "espresso query with the model's set");
  ExpectRejects(One(CheckQueryResult("/q", expected, {"m/d1"})),
                "espresso query missing a document");
  ExpectRejects(One(CheckQueryResult("/q", expected, {"m/d1", "m/d4", "m/d7"})),
                "espresso query with an extra document");
  ExpectRejects(One(CheckQueryResult("/q", expected, {"m/d1", "m/d7"})),
                "espresso query with a wrong set of the right size");
  ExpectRejects(One(CheckQueryResult("/q", expected, {"m/d1", "m/d4", "m/d4"})),
                "espresso query returning a document twice");
}

/// Two producers, two partitions: producer p's event s goes to partition
/// s % 2, so both partitions interleave both producers.
struct ActivityCase {
  struct Delivery {
    int partition;
    std::string payload;
    int64_t end_offset;
  };
  AckLedger acks;
  std::vector<Delivery> deliveries;
  std::map<int, int64_t> durable;

  ActivityCase() {
    std::map<int, int64_t> offset;
    for (uint32_t p = 0; p < 2; ++p) {
      for (uint64_t s = 0; s < 6; ++s) {
        const std::string payload =
            EncodeTrackingEvent({p, s, 1000 + static_cast<int64_t>(s)}, "xx");
        const int partition = static_cast<int>(s % 2);
        offset[partition] += 40;
        deliveries.push_back({partition, payload, offset[partition]});
        acks.fingerprint_sum += Fingerprint(payload);
        ++acks.total;
      }
      acks.acked[p] = 6;
    }
    durable = offset;
  }

  std::vector<std::string> Check() const {
    DeliveryLedger ledger;
    for (const Delivery& d : deliveries) {
      ledger.Deliver(d.partition, d.payload, d.end_offset);
    }
    return CheckActivity(acks, ledger, durable);
  }
};

void ActivityChecks() {
  TrackingEvent event;
  Expect(DecodeTrackingEvent(EncodeTrackingEvent({7, 42, 99}, "pad"), &event) &&
             event.producer == 7 && event.seq == 42 && event.created_ns == 99,
         "tracking event round trip");

  ExpectAccepts(ActivityCase().Check(), "activity delivery equal to acks");

  ActivityCase dropped;
  dropped.deliveries.erase(dropped.deliveries.begin() + 3);
  ExpectRejects(dropped.Check(), "activity with a dropped event");

  ActivityCase duplicated;
  duplicated.deliveries.push_back(duplicated.deliveries[2]);
  ++duplicated.acks.total;  // counts alone would balance
  duplicated.acks.fingerprint_sum += Fingerprint(duplicated.deliveries[2].payload);
  ExpectRejects(duplicated.Check(), "activity with a duplicated event");

  ActivityCase reordered;  // producer 0's seq 0 and seq 2 (both partition 0)
  std::swap(reordered.deliveries[0], reordered.deliveries[2]);
  ExpectRejects(reordered.Check(), "activity with a reordered partition");

  ActivityCase corrupted;
  corrupted.deliveries[4].payload.back() = 'y';
  ExpectRejects(corrupted.Check(), "activity with a corrupted payload");

  ActivityCase unacked;  // delivered an event its producer never had acked
  unacked.acks.acked[1] = 5;
  ExpectRejects(unacked.Check(), "activity delivering an unacknowledged event");

  ActivityCase volatile_tail;
  volatile_tail.durable[1] -= 40;
  ExpectRejects(volatile_tail.Check(),
                "activity with a durable end below a delivered offset");
}

/// Three transactions: scn 1 (2 rows), 2 (1 row), 3 (3 rows).
struct StreamCase {
  std::vector<std::pair<int64_t, bool>> events{
      {1, false}, {1, true}, {2, true}, {3, false}, {3, false}, {3, true}};
  std::map<int64_t, int> rows{{1, 2}, {2, 1}, {3, 3}};
  int64_t last_scn = 3;

  std::vector<std::string> Check() const {
    TxnStreamChecker checker;
    for (const auto& [scn, end] : events) checker.Observe(scn, end);
    return checker.Finish(last_scn, rows);
  }
};

void ChangeCaptureChecks() {
  ExpectAccepts(StreamCase().Check(), "databus stream in scn order");

  StreamCase duplicated;
  duplicated.events.insert(duplicated.events.begin() + 3, {2, true});
  ExpectRejects(duplicated.Check(), "databus stream with a duplicated txn");

  StreamCase gap;
  gap.events.erase(gap.events.begin() + 2);
  ExpectRejects(gap.Check(), "databus stream with a missing txn");

  StreamCase reordered;
  reordered.events = {{2, true}, {1, false}, {1, true},
                      {3, false}, {3, false}, {3, true}};
  ExpectRejects(reordered.Check(), "databus stream out of scn order");

  StreamCase torn;  // scn 3's rows split by another transaction
  torn.events = {{1, false}, {1, true}, {3, false}, {2, true},
                 {3, false}, {3, true}};
  ExpectRejects(torn.Check(), "databus stream with a txn's rows apart");

  StreamCase short_txn;
  short_txn.events.erase(short_txn.events.begin() + 3);
  ExpectRejects(short_txn.Check(), "databus stream missing a row of a txn");

  StreamCase behind;
  behind.last_scn = 4;
  ExpectRejects(behind.Check(), "databus stream behind the source");

  const std::map<std::string, std::string> source{{"a", "r1"}, {"b", "r2"}};
  ExpectAccepts(CheckMaterialized("c", source, source),
                "materialized table equal to the source");
  ExpectRejects(CheckMaterialized("c", {{"a", "r1"}}, source),
                "materialized table missing a row");
  ExpectRejects(CheckMaterialized("c", {{"a", "r1"}, {"b", "old"}}, source),
                "materialized table with a stale row");
  ExpectRejects(
      CheckMaterialized("c", {{"a", "r1"}, {"b", "r2"}, {"z", "r9"}}, source),
      "materialized table with an extra row");
}

// The decorator's base must compile both while the transport interface
// declares the legacy stats surface and after it is removed.
struct WithStats {
  virtual ~WithStats() = default;
  virtual int GetStats(const std::string& address) const = 0;
  virtual void ResetStats() = 0;
};
struct WithoutStats {
  virtual ~WithoutStats() = default;
};
static_assert(HasLegacyStats<WithStats>);
static_assert(!HasLegacyStats<WithoutStats>);
static_assert(!std::is_abstract_v<LegacyStatsForwarding<WithStats>>,
              "forwarding implements the legacy stats surface");
static_assert(!std::is_abstract_v<LegacyStatsForwarding<WithoutStats>>,
              "nothing to forward once the surface is gone");

struct CountingStats final : WithStats {
  int GetStats(const std::string&) const override { return 7; }
  void ResetStats() override { ++resets; }
  int resets = 0;
};

void DecoratorChecks() {
  CountingStats inner;
  LegacyStatsForwarding<WithStats> forwarding(&inner);
  forwarding.ResetStats();
  Expect(forwarding.GetStats("x") == 7 && inner.resets == 1,
         "legacy stats forwarded to the wrapped transport");
  WithoutStats bare;
  LegacyStatsForwarding<WithoutStats> plain(&bare);
  (void)plain;
}

}  // namespace
}  // namespace lidibench

int main() {
  lidibench::ServingChecks();
  lidibench::ActivityChecks();
  lidibench::ChangeCaptureChecks();
  lidibench::DecoratorChecks();
  std::printf("%d of %d check tests passed\n",
              lidibench::checks - lidibench::failures, lidibench::checks);
  return lidibench::failures == 0 ? 0 : 1;
}
