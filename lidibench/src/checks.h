// The benchmark's correctness checks. Each compares what the program
// returned against the benchmark's own model or against a property the
// method must have; none compares against saved output. They are plain
// functions and ledgers over values, so checks_test.cc can feed them broken
// outputs without a cluster.
#ifndef LIDIBENCH_CHECKS_H_
#define LIDIBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace lidibench {

// ---------------------------------------------------------------------------
// serving

/// A Voldemort read against the caller's model (R + W > N, one writer per
/// key): the read must return exactly one version holding the caller's last
/// acknowledged value, or NotFound when the model holds none. Returns "" when
/// the read is correct, else what is wrong.
std::string CheckVoldemortRead(const std::string& key,
                               const std::optional<std::string>& model,
                               bool not_found,
                               const std::vector<std::string>& values);

/// An Espresso document as the model holds it.
struct DocModel {
  int64_t version = 0;
  std::string label;
};

/// A document read: the decoded fields must equal the model's.
std::string CheckDocumentRead(const std::string& uri,
                              const std::optional<DocModel>& model,
                              bool not_found, int64_t version,
                              const std::string& label);

/// A secondary-index query must return exactly the model's set of keys.
std::string CheckQueryResult(const std::string& uri,
                             const std::set<std::string>& expected,
                             const std::vector<std::string>& got);

// ---------------------------------------------------------------------------
// activity

/// One tracking event. The payload carries the producer, its sequence number
/// (rising per producer), its creation time and filler to a fixed size.
struct TrackingEvent {
  uint32_t producer = 0;
  uint64_t seq = 0;
  int64_t created_ns = 0;
};
std::string EncodeTrackingEvent(const TrackingEvent& event,
                                const std::string& filler);
bool DecodeTrackingEvent(const std::string& payload, TrackingEvent* event);

/// What the consumer group received, partition by partition, in delivery
/// order. Duplicates and per-partition order violations are detected as
/// events arrive; counts and the payload fingerprint sum are accumulated
/// independently of the producers'.
class DeliveryLedger {
 public:
  /// Records one delivered message. `end_offset` is one past its entry.
  void Deliver(int partition, const std::string& payload, int64_t end_offset);

  int64_t delivered() const { return delivered_; }
  uint64_t fingerprint_sum() const { return fingerprint_sum_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// Highest end offset delivered per partition.
  const std::map<int, int64_t>& end_offsets() const { return end_offsets_; }
  /// Highest sequence delivered per producer.
  const std::map<uint32_t, uint64_t>& max_seq() const { return max_seq_; }

 private:
  void Error(std::string what);

  /// A sequence this high is a corrupt payload, not an event of the run.
  static constexpr uint64_t kMaxSeq = uint64_t{1} << 30;

  int64_t delivered_ = 0;
  uint64_t fingerprint_sum_ = 0;
  /// Per producer, which sequences were delivered. Sequences are dense
  /// from 0, so a bit per sequence keeps this check cheap enough to run on
  /// the consumer's critical path at millions of events per run.
  std::map<uint32_t, std::vector<bool>> seen_;
  std::map<std::pair<int, uint32_t>, uint64_t> last_seq_;
  std::map<int, int64_t> end_offsets_;
  std::map<uint32_t, uint64_t> max_seq_;
  std::vector<std::string> errors_;
};

/// The producers' acknowledgements: per producer, sequences [0, acked) were
/// acknowledged (a producer ships in order and waits for each ack).
struct AckLedger {
  std::map<uint32_t, uint64_t> acked;
  int64_t total = 0;
  uint64_t fingerprint_sum = 0;
};

/// Delivered events must equal acknowledged events: equal counts and equal
/// fingerprint sums, no event the producers did not acknowledge, no
/// duplicate, each producer's sequence rising within each partition, and
/// every partition's durable end covering the last offset delivered from it.
std::vector<std::string> CheckActivity(
    const AckLedger& acks, const DeliveryLedger& delivered,
    const std::map<int, int64_t>& durable_end_offsets);

// ---------------------------------------------------------------------------
// change_capture

/// One client's event stream. Transactions must arrive exactly once, in SCN
/// order with no gap, with their rows together and the end-of-transaction
/// marker on the last row only.
class TxnStreamChecker {
 public:
  /// Observes one delivered event.
  void Observe(int64_t scn, bool end_of_txn);
  /// Verifies the stream against the source: every SCN in (0, last_scn]
  /// delivered, and each transaction with the number of rows its committer
  /// wrote (rows_per_scn, for every transaction the model knows).
  std::vector<std::string> Finish(int64_t last_scn,
                                  const std::map<int64_t, int>& rows_per_scn);

 private:
  void Error(std::string what);

  int64_t last_complete_scn_ = 0;
  int64_t open_scn_ = 0;  // transaction whose rows are arriving, 0 = none
  int open_rows_ = 0;
  std::map<int64_t, int> rows_;
  std::vector<std::string> errors_;
};

/// A client's materialized table must equal a scan of the source table.
std::vector<std::string> CheckMaterialized(
    const std::string& client,
    const std::map<std::string, std::string>& materialized,
    const std::map<std::string, std::string>& source);

}  // namespace lidibench

#endif  // LIDIBENCH_CHECKS_H_
