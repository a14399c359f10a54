#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench.h"
#include "tracer.h"

namespace lidibench {

namespace {
uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::string Rng::Bytes(size_t n) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string out(n, '\0');
  uint64_t bits = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) bits = Next();
    out[i] = kAlphabet[(bits & 0xff) % 62];
    bits >>= 8;
  }
  return out;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x100000001b3ULL + stream;
  return SplitMix(&x);
}

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
}

uint64_t Fingerprint(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double Percentile(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return static_cast<double>(samples[index]);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CounterSum(const lidi::obs::RegistrySnapshot& snapshot,
                  const std::string& name) {
  bool found = false;
  double sum = 0;
  for (const auto& inst : snapshot.instruments) {
    if (inst.name != name) continue;
    found = true;
    sum += static_cast<double>(inst.value);
  }
  return found ? sum : -1;
}

double CounterAt(const lidi::obs::RegistrySnapshot& snapshot,
                 const std::string& name, const lidi::obs::Labels& labels) {
  const auto* inst = snapshot.Find(name, labels);
  return inst == nullptr ? -1 : static_cast<double>(inst->value);
}

double CounterDelta(const RunResult& result, const std::string& name,
                    const lidi::obs::Labels* labels) {
  auto value = [&](const lidi::obs::RegistrySnapshot& snapshot) {
    return labels == nullptr ? CounterSum(snapshot, name)
                             : CounterAt(snapshot, name, *labels);
  };
  const double end = value(result.snapshot_end);
  if (end < 0) return -1;
  return end - std::max(0.0, value(result.snapshot_start));
}

double Ratio(double num, double den) {
  if (num < 0 || den < 0) return -1;
  return den == 0 ? 0 : num / den;
}

namespace {
bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}
bool ReadAll(int fd, char* p, size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}
}  // namespace

double FloorSocketRttUs() {
  constexpr int kWarmup = 200;
  constexpr int kRounds = 3000;
  constexpr size_t kBytes = 64;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    return -1;
  }
  std::thread echo([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buf[kBytes];
    while (ReadAll(fd, buf, kBytes) && WriteAll(fd, buf, kBytes)) {
    }
    ::close(fd);
  });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  std::vector<int64_t> rtts;
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buf[kBytes];
    std::memset(buf, 'x', kBytes);
    for (int i = 0; i < kWarmup + kRounds; ++i) {
      const int64_t start = NowNs();
      if (!WriteAll(fd, buf, kBytes) || !ReadAll(fd, buf, kBytes)) break;
      if (i >= kWarmup) rtts.push_back(NowNs() - start);
    }
  }
  if (fd >= 0) ::close(fd);  // the echo thread sees EOF and exits
  ::shutdown(listener, SHUT_RDWR);
  echo.join();
  ::close(listener);
  return rtts.empty() ? -1 : Percentile(rtts, 50) / 1e3;
}

double FloorFdatasyncUs(const std::string& dir) {
  constexpr int kRounds = 100;
  const std::string path = dir + "/floor.fdatasync";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return -1;
  std::string block(4096, 'f');
  std::vector<int64_t> syncs;
  for (int i = 0; i < kRounds; ++i) {
    const int64_t start = NowNs();
    if (!WriteAll(fd, block.data(), block.size()) || ::fdatasync(fd) != 0) {
      break;
    }
    syncs.push_back(NowNs() - start);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return syncs.empty() ? -1 : Percentile(syncs, 50) / 1e3;
}

Window Window::Plan(int seconds) {
  Window window;
  window.start_ns = NowNs() + kWarmupNs;
  window.end_ns = window.start_ns + int64_t{seconds} * 1'000'000'000;
  return window;
}

void MeasureWindow(const RunConfig& config, const Window& window,
                   lidi::obs::MetricsRegistry* registry, RunResult* result) {
  auto sleep_until = [](int64_t t) {
    for (int64_t now = NowNs(); now < t; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
    }
  };
  Tracer* tracer = config.tracer;
  sleep_until(window.start_ns);
  const double cpu_start = ProcessCpuSeconds();
  int64_t call_bytes = 0, fetch_bytes = 0;
  if (tracer != nullptr) {
    result->snapshot_start = registry->Snapshot();
    call_bytes = tracer->call_bytes.load();
    fetch_bytes = tracer->fetch_bytes.load();
  }
  sleep_until(window.end_ns);
  result->window_cpu_s = ProcessCpuSeconds() - cpu_start;
  if (tracer != nullptr) {
    result->snapshot_end = registry->Snapshot();
    result->window_call_bytes = tracer->call_bytes.load() - call_bytes;
    result->window_fetch_bytes = tracer->fetch_bytes.load() - fetch_bytes;
    tracer->SetWindow(window.start_ns, window.end_ns);
  }
  result->window_s = static_cast<double>(window.end_ns - window.start_ns) / 1e9;
  result->window_start_ns = window.start_ns;
}

void RunResult::SetupDone() {
  preload_done_ns = NowNs();
  setup_peak_rss_mib = PeakRssMib();
}

void MustOk(const lidi::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "lidibench set-up failed: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(3);
}

void NoteError(std::vector<std::string>* errors, std::string what) {
  if (errors->size() < 20) errors->push_back(std::move(what));
}

}  // namespace lidibench
