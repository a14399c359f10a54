#include "checks.h"

#include <cinttypes>
#include <cstdio>

#include "bench.h"

namespace lidibench {

std::string CheckVoldemortRead(const std::string& key,
                               const std::optional<std::string>& model,
                               bool not_found,
                               const std::vector<std::string>& values) {
  if (!model.has_value()) {
    return not_found ? "" : "voldemort " + key + ": read a value never written";
  }
  if (not_found) return "voldemort " + key + ": acknowledged write not found";
  if (values.size() != 1) {
    return "voldemort " + key + ": " + std::to_string(values.size()) +
           " versions for a single-writer key";
  }
  if (values[0] != *model) {
    return "voldemort " + key + ": stale read (not the last acknowledged value)";
  }
  return "";
}

std::string CheckDocumentRead(const std::string& uri,
                              const std::optional<DocModel>& model,
                              bool not_found, int64_t version,
                              const std::string& label) {
  if (!model.has_value()) {
    return not_found ? "" : "espresso " + uri + ": read a document never written";
  }
  if (not_found) return "espresso " + uri + ": acknowledged document not found";
  if (version != model->version || label != model->label) {
    return "espresso " + uri + ": stale document (version " +
           std::to_string(version) + ", model " +
           std::to_string(model->version) + ")";
  }
  return "";
}

std::string CheckQueryResult(const std::string& uri,
                             const std::set<std::string>& expected,
                             const std::vector<std::string>& got) {
  const std::set<std::string> got_set(got.begin(), got.end());
  if (got_set.size() != got.size()) {
    return "espresso " + uri + ": query returned a document twice";
  }
  if (got_set != expected) {
    return "espresso " + uri + ": query returned " +
           std::to_string(got_set.size()) + " documents, model holds " +
           std::to_string(expected.size()) + (got_set.size() == expected.size()
                                                  ? " (different set)"
                                                  : "");
  }
  return "";
}

std::string EncodeTrackingEvent(const TrackingEvent& event,
                                const std::string& filler) {
  char header[64];
  const int n = std::snprintf(header, sizeof(header),
                              "%" PRIu32 " %" PRIu64 " %" PRId64 "|",
                              event.producer, event.seq, event.created_ns);
  return std::string(header, static_cast<size_t>(n)) + filler;
}

bool DecodeTrackingEvent(const std::string& payload, TrackingEvent* event) {
  unsigned long long producer = 0, seq = 0;
  long long created = 0;
  if (std::sscanf(payload.c_str(), "%llu %llu %lld|", &producer, &seq,
                  &created) != 3) {
    return false;
  }
  event->producer = static_cast<uint32_t>(producer);
  event->seq = seq;
  event->created_ns = created;
  return true;
}

void DeliveryLedger::Error(std::string what) { NoteError(&errors_, std::move(what)); }

void DeliveryLedger::Deliver(int partition, const std::string& payload,
                             int64_t end_offset) {
  TrackingEvent event;
  if (!DecodeTrackingEvent(payload, &event)) {
    Error("activity: undecodable payload in partition " +
          std::to_string(partition));
    return;
  }
  ++delivered_;
  fingerprint_sum_ += Fingerprint(payload);
  uint64_t& max_seq = max_seq_[event.producer];
  if (event.seq > max_seq) max_seq = event.seq;
  if (event.seq >= kMaxSeq) {
    Error("activity: producer " + std::to_string(event.producer) + " seq " +
          std::to_string(event.seq) + " beyond any run's reach");
    return;
  }
  std::vector<bool>& seen = seen_[event.producer];
  if (event.seq >= seen.size()) seen.resize(event.seq + 1 + event.seq / 2);
  if (seen[event.seq]) {
    Error("activity: duplicate event producer " +
          std::to_string(event.producer) + " seq " + std::to_string(event.seq));
  }
  seen[event.seq] = true;
  const auto key = std::make_pair(partition, event.producer);
  auto it = last_seq_.find(key);
  if (it != last_seq_.end() && event.seq <= it->second) {
    Error("activity: partition " + std::to_string(partition) +
          " reordered producer " + std::to_string(event.producer) + ": seq " +
          std::to_string(event.seq) + " after " + std::to_string(it->second));
  }
  last_seq_[key] = event.seq;
  int64_t& end = end_offsets_[partition];
  if (end_offset > end) end = end_offset;
}

std::vector<std::string> CheckActivity(
    const AckLedger& acks, const DeliveryLedger& delivered,
    const std::map<int, int64_t>& durable_end_offsets) {
  std::vector<std::string> errors = delivered.errors();
  if (delivered.delivered() != acks.total) {
    NoteError(&errors, "activity: delivered " +
                      std::to_string(delivered.delivered()) +
                      " events, acknowledged " + std::to_string(acks.total));
  }
  if (delivered.fingerprint_sum() != acks.fingerprint_sum) {
    NoteError(&errors, "activity: payload fingerprint sum differs from the "
                  "acknowledged events'");
  }
  for (const auto& [producer, max_seq] : delivered.max_seq()) {
    auto it = acks.acked.find(producer);
    if (it == acks.acked.end() || max_seq >= it->second) {
      NoteError(&errors, "activity: producer " + std::to_string(producer) +
                        " delivered seq " + std::to_string(max_seq) +
                        " it never had acknowledged");
    }
  }
  for (const auto& [partition, end] : delivered.end_offsets()) {
    auto it = durable_end_offsets.find(partition);
    const int64_t durable = it == durable_end_offsets.end() ? -1 : it->second;
    if (durable < end) {
      NoteError(&errors, "activity: partition " + std::to_string(partition) +
                        " durable end " + std::to_string(durable) +
                        " below delivered offset " + std::to_string(end));
    }
  }
  return errors;
}

void TxnStreamChecker::Error(std::string what) {
  NoteError(&errors_, std::move(what));
}

void TxnStreamChecker::Observe(int64_t scn, bool end_of_txn) {
  if (open_scn_ != 0 && scn != open_scn_) {
    Error("databus: transaction " + std::to_string(open_scn_) +
          " interrupted by " + std::to_string(scn) + " before its last row");
    open_scn_ = 0;
  }
  if (open_scn_ == 0) {
    if (scn <= last_complete_scn_) {
      Error("databus: transaction " + std::to_string(scn) +
            " delivered again or out of order after " +
            std::to_string(last_complete_scn_));
    } else if (scn != last_complete_scn_ + 1) {
      Error("databus: gap: transaction " + std::to_string(scn) + " after " +
            std::to_string(last_complete_scn_));
    }
    open_scn_ = scn;
    open_rows_ = 0;
  }
  ++open_rows_;
  if (end_of_txn) {
    rows_[scn] = open_rows_;
    if (scn > last_complete_scn_) last_complete_scn_ = scn;
    open_scn_ = 0;
  }
}

std::vector<std::string> TxnStreamChecker::Finish(
    int64_t last_scn, const std::map<int64_t, int>& rows_per_scn) {
  std::vector<std::string> errors = errors_;
  if (open_scn_ != 0) {
    NoteError(&errors, "databus: transaction " + std::to_string(open_scn_) +
                      " never completed");
  }
  if (last_complete_scn_ != last_scn) {
    NoteError(&errors, "databus: stream ends at scn " +
                      std::to_string(last_complete_scn_) + ", source at " +
                      std::to_string(last_scn));
  }
  if (static_cast<int64_t>(rows_.size()) != last_scn) {
    NoteError(&errors, "databus: " + std::to_string(rows_.size()) +
                      " distinct transactions for scns 1.." +
                      std::to_string(last_scn));
  }
  for (const auto& [scn, rows] : rows_per_scn) {
    auto it = rows_.find(scn);
    if (it == rows_.end()) {
      NoteError(&errors, "databus: committed transaction " + std::to_string(scn) +
                        " never delivered");
    } else if (it->second != rows) {
      NoteError(&errors, "databus: transaction " + std::to_string(scn) +
                        " delivered with " + std::to_string(it->second) +
                        " rows, committed with " + std::to_string(rows));
    }
  }
  return errors;
}

std::vector<std::string> CheckMaterialized(
    const std::string& client,
    const std::map<std::string, std::string>& materialized,
    const std::map<std::string, std::string>& source) {
  std::vector<std::string> errors;
  if (materialized.size() != source.size()) {
    NoteError(&errors, "databus " + client + ": materialized " +
                      std::to_string(materialized.size()) + " rows, source " +
                      std::to_string(source.size()));
  }
  for (const auto& [key, row] : source) {
    auto it = materialized.find(key);
    if (it == materialized.end()) {
      NoteError(&errors, "databus " + client + ": row " + key + " missing");
    } else if (it->second != row) {
      NoteError(&errors, "databus " + client + ": row " + key + " differs");
    }
  }
  return errors;
}

}  // namespace lidibench
