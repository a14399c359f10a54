// lidibench: one workload of the end-to-end benchmark, in one process over
// real TCP (net::TcpTransport) and real disks.
//
//   lidibench --workload serving|activity|change_capture --seed N
//             --seconds S --trace 0|1 [--data-dir D] [--out-dir O]
//
// Prints a human-readable report, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 wires a timing decorator and span recorder
// in and reports the per-layer metrics instead.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "databus/client.h"
#include "tracer.h"

namespace lidibench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "ops/s"},
    {"latency_p50_us", "us"},
    {"setup_peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.call_us", "us"},
    {"net.handler_us", "us"},
    {"net.transit_us", "us"},
    {"net.calls_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"voldemort.get_us", "us"},
    {"voldemort.put_us", "us"},
    {"voldemort.rpcs_per_put", "count"},
    {"voldemort.server_get_us", "us"},
    {"voldemort.server_put_us", "us"},
    {"espresso.get_us", "us"},
    {"espresso.put_us", "us"},
    {"espresso.query_us", "us"},
    {"espresso.server_put_us", "us"},
    {"espresso.server_query_us", "us"},
    {"espresso.docs_per_query", "count"},
    {"kafka.send_us", "us"},
    {"kafka.produce_handler_us", "us"},
    {"kafka.msgs_per_produce", "count"},
    {"kafka.fetch_handler_us", "us"},
    {"kafka.poll_us", "us"},
    {"kafka.msgs_per_poll", "count"},
    {"kafka.useful_poll_ratio", "ratio"},
    {"kafka.copied_bytes_per_fetched_byte", "ratio"},
    {"io.kafka_appends_per_sync", "count"},
    {"io.binlog_commits_per_sync", "count"},
    {"sqlstore.commit_us", "us"},
    {"databus.relay_poll_us", "us"},
    {"databus.events_per_relay_poll", "count"},
    {"databus.read_handler_us", "us"},
    {"databus.client_poll_us", "us"},
    {"databus.events_per_client_poll", "count"},
    {"databus.useful_poll_ratio", "ratio"},
    {"databus.max_events_per_client_poll", "count"},
    {"setup.topology_s", "s"},
    {"setup.preload_s", "s"},
    {"process.cpu_us_per_op", "us"},
    {"floor.socket_rtt_us", "us"},
    {"floor.fdatasync_us", "us"},
};

/// Where each floor is printed beside in the traced report.
const std::map<std::string, std::string> kFloorBeside = {
    {"net.transit_us", "floor.socket_rtt_us"},
    {"kafka.produce_handler_us", "floor.fdatasync_us"},
    {"sqlstore.commit_us", "floor.fdatasync_us"},
};

/// Tier spans and transport methods behind the per-layer timings.
struct SpanMetric {
  const char* metric;
  SpanKind kind;
  const char* name;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"voldemort.get_us", SpanKind::kTier, "voldemort.get"},
    {"voldemort.put_us", SpanKind::kTier, "voldemort.put"},
    {"voldemort.server_get_us", SpanKind::kHandler, "v.get"},
    {"voldemort.server_put_us", SpanKind::kHandler, "v.put"},
    {"espresso.get_us", SpanKind::kTier, "espresso.get"},
    {"espresso.put_us", SpanKind::kTier, "espresso.put"},
    {"espresso.query_us", SpanKind::kTier, "espresso.query"},
    {"espresso.server_put_us", SpanKind::kHandler, "espresso.put"},
    {"espresso.server_query_us", SpanKind::kHandler, "espresso.query"},
    {"kafka.send_us", SpanKind::kTier, "kafka.send"},
    {"kafka.produce_handler_us", SpanKind::kHandler, "kafka.produce"},
    {"kafka.fetch_handler_us", SpanKind::kHandler, "kafka.fetch"},
    {"kafka.poll_us", SpanKind::kTier, "kafka.poll"},
    {"sqlstore.commit_us", SpanKind::kTier, "sqlstore.commit"},
    {"databus.relay_poll_us", SpanKind::kTier, "databus.relay_poll"},
    {"databus.read_handler_us", SpanKind::kHandler, "databus.read"},
    {"databus.client_poll_us", SpanKind::kTier, "databus.client_poll"},
};

/// Operations traced in full in the traced run: one in this many.
constexpr int kSampleEvery = 4;

double MedianUs(const std::vector<int64_t>& ns) {
  return ns.empty() ? 0 : Percentile(ns, 50) / 1e3;
}

/// Operations per second, as the median over the window's one-second
/// slices: a stall inside one slice moves it, not the run's figure.
double MedianRate(const RunResult& r) {
  const int slices = static_cast<int>(r.window_s);
  if (slices < 1 || r.completions_ns.empty()) return 0;
  const double ops_per_completion =
      static_cast<double>(r.window_ops) / r.completions_ns.size();
  std::vector<int64_t> counts(slices, 0);
  for (int64_t t : r.completions_ns) {
    const int64_t slice = (t - r.window_start_ns) / 1'000'000'000;
    if (slice >= 0 && slice < slices) ++counts[slice];
  }
  return Percentile(counts, 50) * ops_per_completion;
}

std::map<std::string, double> EndToEnd(const RunConfig& config,
                                       const RunResult& r) {
  std::map<std::string, double> m;
  m["setup_s"] =
      static_cast<double>(r.preload_done_ns - config.process_start_ns) / 1e9;
  m["throughput_ops_s"] = MedianRate(r);
  m["latency_p50_us"] = Percentile(r.latencies_ns, 50) / 1e3;
  m["setup_peak_rss_mib"] = r.setup_peak_rss_mib;
  return m;
}

std::map<std::string, double> PerLayer(const RunConfig& config,
                                       const RunResult& r,
                                       const Tracer& tracer) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kPerLayer) m[def.name] = 0;

  std::map<std::pair<SpanKind, std::string>, std::vector<int64_t>> durations;
  std::vector<int64_t> calls, handlers, transits;
  double put_spans = 0, put_calls = 0;
  for (const SpanRecord& s : tracer.WindowSpans()) {
    durations[{s.kind, s.name}].push_back(s.duration_ns);
    if (s.kind == SpanKind::kCall) {
      calls.push_back(s.duration_ns);
      if (s.aux >= 0) transits.push_back(s.duration_ns - s.aux);
    } else if (s.kind == SpanKind::kHandler) {
      handlers.push_back(s.duration_ns);
    } else if (s.kind == SpanKind::kTier &&
               std::strcmp(s.name, "voldemort.put") == 0) {
      ++put_spans;
      put_calls += static_cast<double>(s.aux);
    }
  }
  for (const SpanMetric& sm : kSpanMetrics) {
    auto it = durations.find({sm.kind, sm.name});
    if (it != durations.end()) m[sm.metric] = MedianUs(it->second);
  }
  m["net.call_us"] = MedianUs(calls);
  m["net.handler_us"] = MedianUs(handlers);
  m["net.transit_us"] = MedianUs(transits);
  m["voldemort.rpcs_per_put"] = Ratio(put_calls, put_spans);
  const double ops = static_cast<double>(r.window_ops);
  m["net.calls_per_op"] = Ratio(CounterDelta(r, "net.calls_sent"), ops);
  m["net.bytes_per_op"] = Ratio(static_cast<double>(r.window_call_bytes), ops);
  for (const auto& [name, value] : r.layer) {
    if (m.count(name) > 0) m[name] = value;
  }
  m["setup.topology_s"] =
      static_cast<double>(r.topology_done_ns - config.process_start_ns) / 1e9;
  m["setup.preload_s"] =
      static_cast<double>(r.preload_done_ns - r.topology_done_ns) / 1e9;
  m["process.cpu_us_per_op"] = Ratio(r.window_cpu_s * 1e6, ops);
  return m;
}

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonLine(const RunResult& r, const MetricDef* defs, size_t n,
                     const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out.append("\"").append(defs[i].name).append("\": {\"value\": ");
    out.append(Number(values.at(defs[i].name)));
    out.append(", \"unit\": \"").append(defs[i].unit).append("\"}");
  }
  return out + "}}";
}

void PrintReport(const RunConfig& config, const RunResult& r,
                 const std::map<std::string, double>& e2e,
                 const std::map<std::string, double>* layer) {
  std::printf("lidibench workload=%s seed=%llu seconds=%d trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.tracer != nullptr ? 1 : 0);
  std::printf("  ops in window %lld, latency samples %zu, attempted %lld, "
              "failed %lld\n",
              static_cast<long long>(r.window_ops), r.latencies_ns.size(),
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (const MetricDef& def : kEndToEnd) {
    std::printf("  %-38s %14.3f %s\n", def.name, e2e.at(def.name), def.unit);
  }
  if (layer != nullptr) {
    std::printf("  per-layer (medians of sampled spans inside the window):\n");
    for (const MetricDef& def : kPerLayer) {
      const double v = layer->at(def.name);
      if (v < 0) {
        std::printf("  %-38s %14s %s (program counter missing)\n", def.name,
                    "missing", def.unit);
        continue;
      }
      std::printf("  %-38s %14.3f %s", def.name, v, def.unit);
      auto floor = kFloorBeside.find(def.name);
      if (floor != kFloorBeside.end()) {
        const double f = layer->at(floor->second);
        std::printf("   [%s %.3f us, %.2fx]", floor->second.c_str(), f,
                    f > 0 ? v / f : 0.0);
      }
      if (std::strcmp(def.name, "databus.max_events_per_client_poll") == 0) {
        // A client batch this full may end inside a transaction: see the
        // relay's batch cut in CHANGES.md.
        std::printf("   [client batch limit %lld]",
                    static_cast<long long>(
                        lidi::databus::ClientOptions{}.max_batch_events));
      }
      std::printf("\n");
    }
  }
  if (layer != nullptr) {
    std::printf("  registry counters that moved inside the window:\n");
    for (const auto& inst : r.snapshot_end.instruments) {
      if (inst.kind != lidi::obs::InstrumentKind::kCounter) continue;
      const auto* before = r.snapshot_start.Find(inst.name, inst.labels);
      const int64_t delta = inst.value - (before != nullptr ? before->value : 0);
      if (delta != 0) {
        std::printf("    %-60s %lld\n", inst.full_name().c_str(),
                    static_cast<long long>(delta));
      }
    }
  }
  for (const std::string& e : r.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "lidibench: %s\nusage: lidibench --workload "
               "serving|activity|change_capture --seed N --seconds S "
               "--trace 0|1 [--data-dir D] [--out-dir O]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.process_start_ns = NowNs();
  std::string data_root = ".bench_data";
  std::string out_dir = ".bench_out";
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--data-dir") {
      data_root = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (config.seconds < 1) return Usage("--seconds must be at least 1");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "serving") run = RunServing;
  if (config.workload == "activity") run = RunActivity;
  if (config.workload == "change_capture") run = RunChangeCapture;
  if (run == nullptr) return Usage("unknown --workload");
  config.max_threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));

  namespace fs = std::filesystem;
  std::error_code ec;
  config.data_dir = data_root + "/run-" + std::to_string(::getpid());
  fs::remove_all(config.data_dir, ec);
  fs::create_directories(config.data_dir, ec);
  if (ec) return Usage(("cannot create " + config.data_dir).c_str());

  std::unique_ptr<Tracer> tracer;
  if (trace == 1) {
    tracer = std::make_unique<Tracer>(kSampleEvery);
    config.tracer = tracer.get();
  }
  const RunResult result = run(config);
  const auto e2e = EndToEnd(config, result);

  std::map<std::string, double> layer;
  if (tracer != nullptr) {
    layer = PerLayer(config, result, *tracer);
    layer["floor.socket_rtt_us"] = FloorSocketRttUs();
    layer["floor.fdatasync_us"] = FloorFdatasyncUs(config.data_dir);
    fs::create_directories(out_dir, ec);
    const std::string spans = out_dir + "/spans-" + config.workload + ".jsonl";
    const int64_t written = tracer->WriteSpans(spans);
    std::fprintf(stderr, "lidibench: %lld spans written to %s\n",
                 static_cast<long long>(written), spans.c_str());
  }
  fs::remove_all(config.data_dir, ec);

  PrintReport(config, result, e2e, tracer != nullptr ? &layer : nullptr);
  const std::string json =
      tracer != nullptr
          ? JsonLine(result, kPerLayer, std::size(kPerLayer), layer)
          : JsonLine(result, kEndToEnd, std::size(kEndToEnd), e2e);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() && result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lidibench

int main(int argc, char** argv) { return lidibench::Main(argc, argv); }
