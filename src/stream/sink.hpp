// twiddc::stream -- client-side sinks for polled session output.
//
// poll() hands the client raw StreamChunks; a Sink is the adapter that
// turns the polling loop into a destination (a demodulator, a file, a
// network socket -- or, here, memory for tests and examples).  Sinks are
// driven from the client's polling thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/session.hpp"

namespace twiddc::stream {

class Sink {
 public:
  virtual ~Sink() = default;

  /// One polled chunk of one session, in stream order per session.
  virtual void on_chunk(std::uint64_t session_id, StreamChunk&& chunk) = 0;
};

/// Keeps every chunk in memory, per session -- the in-process endpoint for
/// tests, benches and examples.
class CollectingSink final : public Sink {
 public:
  void on_chunk(std::uint64_t session_id, StreamChunk&& chunk) override {
    chunks_[session_id].push_back(std::move(chunk));
  }

  [[nodiscard]] const std::vector<StreamChunk>& chunks(std::uint64_t session_id) const {
    static const std::vector<StreamChunk> kEmpty;
    const auto it = chunks_.find(session_id);
    return it == chunks_.end() ? kEmpty : it->second;
  }

  /// Concatenated IQ payload of one session's stream.
  [[nodiscard]] std::vector<core::IqSample> samples(std::uint64_t session_id) const {
    return flatten(chunks(session_id));
  }

 private:
  std::map<std::uint64_t, std::vector<StreamChunk>> chunks_;
};

/// Records per-session inter-chunk arrival gaps instead of payloads -- the
/// overload bench's probe for "did my stream keep flowing while others were
/// shed".  Timestamps are taken at delivery (the polling thread), so a gap
/// covers the whole path: pump -> ring -> worker -> output ring -> poll.
///
/// Gaps go into a metrics::Histogram (microsecond buckets) instead of an
/// unbounded vector, so memory stays constant however long the run -- a
/// quantile is a bucket upper bound, exact to ~12.5% (see metrics.hpp).
class LatencyRecorder final : public Sink {
 public:
  void on_chunk(std::uint64_t session_id, StreamChunk&& chunk) override {
    const auto now = std::chrono::steady_clock::now();
    auto& rec = records_[session_id];
    if (rec.chunks > 0) record_gap(rec, now);
    rec.last = now;
    rec.chunks++;
    rec.samples += chunk.iq.size();
  }

  [[nodiscard]] std::uint64_t chunks(std::uint64_t session_id) const {
    const auto it = records_.find(session_id);
    return it == records_.end() ? 0 : it->second.chunks;
  }
  [[nodiscard]] std::uint64_t samples(std::uint64_t session_id) const {
    const auto it = records_.find(session_id);
    return it == records_.end() ? 0 : it->second.samples;
  }

  /// Appends the still-open tail gap (now minus last arrival) of every
  /// session that delivered at least one chunk.  Call once when a fixed
  /// measurement window closes, so a stream that stalled mid-window charges
  /// its silence to the latency distribution instead of it vanishing.
  void close_window() {
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, rec] : records_) {
      if (rec.chunks == 0) continue;
      record_gap(rec, now);
      rec.last = now;
    }
  }

  /// p-quantile (0..1) of inter-chunk gaps pooled across `session_ids`;
  /// 0.0 when fewer than two chunks arrived anywhere.
  [[nodiscard]] double gap_quantile_ms(const std::vector<std::uint64_t>& session_ids,
                                       double p) const {
    metrics::HistogramSnapshot pool;
    for (const std::uint64_t id : session_ids) {
      const auto it = records_.find(id);
      if (it != records_.end()) pool.add(it->second.gaps_us.snapshot());
    }
    return static_cast<double>(pool.quantile(p)) * 1e-3;
  }

 private:
  struct Record {
    std::chrono::steady_clock::time_point last{};
    std::uint64_t chunks = 0;
    std::uint64_t samples = 0;
    metrics::Histogram gaps_us;
  };

  static void record_gap(Record& rec, std::chrono::steady_clock::time_point now) {
    rec.gaps_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - rec.last)
            .count()));
  }

  std::map<std::uint64_t, Record> records_;
};

/// The standard client loop against a Sink (drain_each's liveness
/// contract), delivering chunks to the sink as they arrive rather than
/// buffering the whole stream.
inline void drain_to(StreamEngine& engine,
                     const std::vector<std::shared_ptr<Session>>& sessions,
                     Sink& sink) {
  drain_each(engine, sessions, [&](std::size_t i, StreamChunk&& chunk) {
    sink.on_chunk(sessions[i]->id(), std::move(chunk));
  });
}

}  // namespace twiddc::stream
