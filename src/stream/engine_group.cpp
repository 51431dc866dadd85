#include "src/stream/engine_group.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/topology.hpp"
#include "src/common/trace.hpp"

namespace twiddc::stream {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed hash so sequential keys (the
/// common case: session index, channel number) spread evenly over shards
/// instead of striping.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

EngineGroup::EngineGroup(SourceFactory factory, EngineGroupOptions options)
    : factory_(std::move(factory)), options_(options) {
  if (!factory_) throw ConfigError("EngineGroup: needs a source factory");
  const std::size_t nodes = common::topology::probe().node_count();
  const std::size_t shards =
      options_.shards > 0 ? static_cast<std::size_t>(options_.shards)
                          : std::max<std::size_t>(1, nodes);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    EngineOptions opts = options_.engine;
    // One shard per node when the caller did not pin explicitly: workers,
    // rings and the shard's whole feed stay node-local.
    if (nodes > 1 && opts.preferred_node < 0) {
      opts.preferred_node = static_cast<int>(i % nodes);
      opts.pin_to_nodes = true;
    }
    shards_.push_back(std::make_unique<StreamEngine>(factory_(), opts));
  }
}

EngineGroup::~EngineGroup() { stop(); }

std::size_t EngineGroup::shard_for(std::uint64_t key) const {
  return mix64(key) % shards_.size();
}

std::shared_ptr<Session> EngineGroup::open(std::uint64_t key,
                                           const core::ChainPlan& plan,
                                           const std::string& backend_name,
                                           BackpressurePolicy policy) {
  const std::size_t idx = shard_for(key);
  auto session = shards_[idx]->open(plan, backend_name, policy);
  std::lock_guard<std::mutex> lock(map_mu_);
  session_shard_[session.get()] = idx;
  return session;
}

void EngineGroup::start() {
  std::size_t started = 0;
  try {
    for (; started < shards_.size(); ++started) shards_[started]->start();
  } catch (...) {
    for (std::size_t i = 0; i < started; ++i) shards_[i]->stop();
    throw;
  }
}

void EngineGroup::stop() {
  for (auto& shard : shards_) shard->stop();
}

void EngineGroup::restart_shard(std::size_t i) {
  auto& shard = *shards_.at(i);
  shard.stop();
  shard.start();
}

void EngineGroup::migrate(const std::shared_ptr<Session>& session,
                          std::size_t to_shard) {
  if (!session) throw ConfigError("EngineGroup: migrate() needs a session");
  if (to_shard >= shards_.size())
    throw ConfigError("EngineGroup: migrate() target shard out of range");
  // map_mu_ is held for the whole move: it doubles as the per-group
  // migration serializer (two concurrent migrations of one session would
  // race eject against adopt).  eject/adopt never call back into the
  // group, so there is no ordering cycle.
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = session_shard_.find(session.get());
  if (it == session_shard_.end())
    throw SimulationError("EngineGroup: migrate() of an unknown session");
  const std::size_t from = it->second;
  if (from == to_shard) return;
  const StreamEngine::MigrationTicket ticket = shards_[from]->eject(session);
  // A fresh identical source backfills whatever span the destination's feed
  // is ahead by; adopt() ignores it when the destination is behind.
  shards_[to_shard]->adopt(ticket, factory_());
  it->second = to_shard;
  ++migrations_;
  if (trace::enabled(trace::Category::kGroup)) {
    static const std::uint16_t kMigrate = trace::intern("migrate");
    // arg1 packs the route; eject/adopt events carry the ticket seq.
    trace::emit(trace::Category::kGroup, kMigrate, trace::Phase::kInstant,
                session->id(), (static_cast<std::uint64_t>(from) << 32) |
                                   static_cast<std::uint64_t>(to_shard));
  }
}

void EngineGroup::migrate_batch(const std::vector<std::shared_ptr<Session>>& sessions,
                                std::size_t to_shard) {
  if (to_shard >= shards_.size())
    throw ConfigError("EngineGroup: migrate_batch() target shard out of range");
  // One serializer hold for the whole batch.  Validate everything first so a
  // bad entry throws before any session has moved (all-or-nothing).
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::unordered_map<const Session*, std::size_t>::iterator> entries;
  entries.reserve(sessions.size());
  for (const auto& session : sessions) {
    if (!session) throw ConfigError("EngineGroup: migrate_batch() needs sessions");
    const auto it = session_shard_.find(session.get());
    if (it == session_shard_.end())
      throw SimulationError("EngineGroup: migrate_batch() of an unknown session");
    entries.push_back(it);
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const std::size_t from = entries[i]->second;
    if (from == to_shard) continue;
    const StreamEngine::MigrationTicket ticket = shards_[from]->eject(sessions[i]);
    shards_[to_shard]->adopt(ticket, factory_());
    entries[i]->second = to_shard;
    ++migrations_;
    if (trace::enabled(trace::Category::kGroup)) {
      static const std::uint16_t kMigrate = trace::intern("migrate");
      trace::emit(trace::Category::kGroup, kMigrate, trace::Phase::kInstant,
                  sessions[i]->id(), (static_cast<std::uint64_t>(from) << 32) |
                                         static_cast<std::uint64_t>(to_shard));
    }
  }
}

std::size_t EngineGroup::shard_of(const std::shared_ptr<Session>& session) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = session_shard_.find(session.get());
  if (it == session_shard_.end())
    throw SimulationError("EngineGroup: shard_of() of an unknown session");
  return it->second;
}

bool EngineGroup::finished(const std::shared_ptr<Session>& session) const {
  return shards_[shard_of(session)]->finished(*session);
}

std::string EngineGroup::stats_json() const {
  std::size_t sessions = 0;
  std::size_t workers = 0;
  std::uint64_t pumped = 0;
  for (const auto& shard : shards_) {
    sessions += shard->session_count();
    workers += static_cast<std::size_t>(shard->options().workers);
    pumped += shard->blocks_pumped();
  }
  JsonLine group_line;
  group_line.field("shards", shards_.size())
      .field("sessions", sessions)
      .field("workers", workers)
      .field("blocks_pumped", static_cast<std::size_t>(pumped))
      .field("migrations", static_cast<std::size_t>(migrations()))
      .field("numa_nodes", common::topology::probe().node_count());
  std::string shard_array = "[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i) shard_array += ", ";
    shard_array += shards_[i]->stats_json();
  }
  shard_array += "]";
  JsonLine root;
  root.object("group", group_line).raw_field("shards", std::move(shard_array));
  return root.str();
}

std::vector<std::vector<StreamChunk>> drain_all(
    EngineGroup& group, const std::vector<std::shared_ptr<Session>>& sessions) {
  std::vector<std::vector<StreamChunk>> out(sessions.size());
  // No single eventcount spans N shards, so the idle path sleeps briefly
  // instead of blocking on a token; the poll pass itself is lock-free.
  for (;;) {
    bool any = false;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      for (auto& chunk : sessions[i]->poll()) {
        out[i].push_back(std::move(chunk));
        any = true;
      }
    }
    if (any) continue;
    bool done = true;
    for (const auto& s : sessions) done = done && group.finished(s);
    if (done) return out;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace twiddc::stream
