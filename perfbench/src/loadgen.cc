#include "perfbench/src/loadgen.h"

#include <chrono>
#include <memory>
#include <thread>

#include "perfbench/src/spans.h"
#include "serving/client.h"
#include "serving/protocol.h"

namespace kgnet::perfbench {

Outcome Checker::Check(const Request& req, const Result<std::string>& resp) {
  if (!resp.ok()) {
    Note("read: " + resp.status().ToString());
    return Outcome::kFailed;
  }
  auto r = serving::ParseQueryResponse(*resp);
  if (!r.ok()) {
    Note("read: " + r.status().ToString());
    return Outcome::kFailed;
  }
  if (RowsDigest(r->result) == oracle_->digest(req.key)) return Outcome::kOk;
  Note("WRONG read: rows differ from the oracle for " + oracle_->key(req.key));
  return Outcome::kWrong;
}

void Checker::Note(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (notes_.size() < 8) notes_.push_back(what);
}

std::vector<std::string> Checker::notes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return notes_;
}

Histogram PhaseResult::Latency() const {
  Histogram h;
  for (const Sample& s : samples)
    if (s.outcome != Outcome::kUnsent)
      h.Record(static_cast<uint64_t>(s.recv_ns - s.due_ns));
  return h;
}

Histogram PhaseResult::Lateness() const {
  Histogram h;
  for (const Sample& s : samples)
    if (s.outcome != Outcome::kUnsent)
      h.Record(static_cast<uint64_t>(std::max<int64_t>(0, s.sent_ns - s.due_ns)));
  return h;
}

Status RunPhase(int port, const std::vector<Request>& reqs, int senders,
                double seconds, double grace_s, Checker* checker,
                PhaseResult* out) {
  Sample unsent;
  unsent.outcome = Outcome::kUnsent;
  out->samples.assign(reqs.size(), unsent);
  out->seconds = seconds;
  std::vector<std::unique_ptr<serving::KgClient>> clients;
  for (int s = 0; s < senders; ++s) {
    auto c = std::make_unique<serving::KgClient>();
    c->set_timeout_ms(20000);
    KGNET_RETURN_IF_ERROR(c->Connect("127.0.0.1", port));
    // A ping makes sure a session worker has picked the connection up.
    KGNET_RETURN_IF_ERROR(c->Ping());
    clients.push_back(std::move(c));
  }
  const int64_t start = NowNs() + 5'000'000;
  const int64_t cutoff =
      start + static_cast<int64_t>((seconds + grace_s) * 1e9);
  out->start_ns = start;
  std::vector<std::thread> threads;
  for (int s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      serving::KgClient& client = *clients[static_cast<size_t>(s)];
      for (size_t i = static_cast<size_t>(s); i < reqs.size();
           i += static_cast<size_t>(senders)) {
        const Request& req = reqs[i];
        Sample& smp = out->samples[i];
        smp.rid = static_cast<uint32_t>(i);
        smp.due_ns = start + req.due_ns;
        int64_t now = NowNs();
        if (now < smp.due_ns) {
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(smp.due_ns)));
          now = NowNs();
        }
        if (now > cutoff) {
          smp.outcome = Outcome::kUnsent;
          continue;
        }
        smp.sent_ns = now;
        Result<std::string> resp = client.Call(req.body);
        smp.recv_ns = NowNs();
        smp.outcome = checker->Check(req, resp);
        if (!resp.ok()) {
          // A transport failure leaves the stream unsynchronized.
          client.Close();
          if (!client.Connect("127.0.0.1", port).ok()) break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Sample& s : out->samples) {
    if (s.outcome == Outcome::kUnsent) {
      ++out->unsent;
      continue;
    }
    ++out->attempted;
    if (s.outcome == Outcome::kFailed) ++out->failed;
    if (s.outcome == Outcome::kWrong) ++out->wrong;
  }
  return Status::OK();
}

}  // namespace kgnet::perfbench
