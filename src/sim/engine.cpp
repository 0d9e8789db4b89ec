#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/require.hpp"
#include "graph/properties.hpp"
#include "sim/link_layer.hpp"
#include "sim/thread_pool.hpp"

namespace dgap {

namespace {

/// Does (channel, payload) match the default the current node declared on
/// its shard this round?
bool matches_default(const detail::SendShard& sh, int channel,
                     const Value* words, std::size_t count) {
  if (!sh.default_active || sh.default_channel != channel ||
      sh.default_len != count) {
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (sh.default_words[i] != words[i]) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// NodeContext — thin accessor layer over Engine state.
// ---------------------------------------------------------------------------

Value NodeContext::id() const { return engine_->graph_.id(index_); }
NodeId NodeContext::n() const { return engine_->graph_.num_nodes(); }
std::int64_t NodeContext::d() const { return engine_->graph_.id_bound(); }
int NodeContext::delta() const { return engine_->graph_.max_degree(); }
int NodeContext::round() const { return engine_->round_; }

std::span<const NodeId> NodeContext::neighbors() const {
  return engine_->graph_.neighbors(index_);
}

Value NodeContext::neighbor_id(NodeId u) const {
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, u), "not a neighbor");
  return engine_->graph_.id(u);
}

std::span<const NodeId> NodeContext::active_neighbors() const {
  const EngineScratch& s = engine_->s_;
  return {s.an_pool.data() + engine_->graph_.offsets()[index_],
          s.an_count[index_]};
}

bool NodeContext::neighbor_active(NodeId u) const {
  const auto an = active_neighbors();
  return std::binary_search(an.begin(), an.end(), u);
}

Value NodeContext::neighbor_output(NodeId u) const {
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, u), "not a neighbor");
  if (engine_->s_.node_active[u]) {
    return kUndefined;  // outputs become visible on termination
  }
  return engine_->s_.node_output[u];
}

Value NodeContext::neighbor_output_for(NodeId u, NodeId key) const {
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, u), "not a neighbor");
  if (engine_->s_.node_active[u]) return kUndefined;
  return engine_->edge_output_lookup(u, key);
}

Value NodeContext::prediction() const {
  return engine_->predictions_->node(index_);
}

Value NodeContext::edge_prediction(NodeId u) const {
  return engine_->predictions_->edge(engine_->graph_, index_, u);
}

void NodeContext::send(NodeId to, const Value* words, std::size_t count,
                       int channel) {
  DGAP_REQUIRE(engine_->in_send_phase_, "send() is only valid in onSend");
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, to),
               "can only send to a neighbor");
  auto& sh = *shard_;
  if (channel < sh.last_channel) sh.channels_monotone = false;
  sh.last_channel = channel;
  detail::SendRecord r;
  r.to = to;
  r.from = index_;
  r.channel = channel;
  r.len = static_cast<std::uint32_t>(count);
  r.offset = 0;
  r.flags = 0;
  if (engine_->compile_defaults_ &&
      matches_default(sh, channel, words, count)) {
    r.flags = detail::SendRecord::kSuppressed;
  }
  if (count <= detail::SendRecord::kInlineCap) {
    for (std::size_t i = 0; i < count; ++i) r.inline_words[i] = words[i];
  } else {
    r.offset = sh.arena.append(words, count);
  }
  sh.sends.push_back(r);
}

void NodeContext::send(NodeId to, const std::vector<Value>& words,
                       int channel) {
  send(to, words.data(), words.size(), channel);
}

void NodeContext::send(NodeId to, std::initializer_list<Value> words,
                       int channel) {
  send(to, words.begin(), words.size(), channel);
}

void NodeContext::broadcast(const Value* words, std::size_t count,
                            int channel) {
  DGAP_REQUIRE(engine_->in_send_phase_, "broadcast() is only valid in onSend");
  const auto an = active_neighbors();
  if (an.empty()) return;
  auto& sh = *shard_;
  if (channel < sh.last_channel) sh.channels_monotone = false;
  sh.last_channel = channel;
  detail::SendRecord r;
  r.from = index_;
  r.channel = channel;
  r.len = static_cast<std::uint32_t>(count);
  r.offset = 0;
  r.flags = 0;
  if (engine_->compile_defaults_ &&
      matches_default(sh, channel, words, count)) {
    r.flags = detail::SendRecord::kSuppressed;
  }
  if (count <= detail::SendRecord::kInlineCap) {
    for (std::size_t i = 0; i < count; ++i) r.inline_words[i] = words[i];
  } else {
    // One arena copy of the payload, shared by every per-neighbor record.
    r.offset = sh.arena.append(words, count);
  }
  for (NodeId u : an) {
    r.to = u;
    sh.sends.push_back(r);
  }
}

void NodeContext::broadcast(const std::vector<Value>& words, int channel) {
  broadcast(words.data(), words.size(), channel);
}

void NodeContext::broadcast(std::initializer_list<Value> words, int channel) {
  broadcast(words.begin(), words.size(), channel);
}

void NodeContext::declare_default(const Value* words, std::size_t count,
                                  int channel) {
  DGAP_REQUIRE(engine_->in_send_phase_,
               "declare_default() is only valid in onSend");
  DGAP_REQUIRE(count <= detail::SendRecord::kInlineCap,
               "a default message holds at most SendRecord::kInlineCap words");
  auto& sh = *shard_;
  sh.default_active = true;
  sh.default_channel = channel;
  sh.default_len = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) sh.default_words[i] = words[i];
}

void NodeContext::declare_default(const std::vector<Value>& words,
                                  int channel) {
  declare_default(words.data(), words.size(), channel);
}

void NodeContext::declare_default(std::initializer_list<Value> words,
                                  int channel) {
  declare_default(words.begin(), words.size(), channel);
}

std::span<const Message> NodeContext::inbox() const {
  const auto& ref = engine_->s_.inbox_ref[index_];
  if (ref.round_stamp != engine_->round_) return {};
  return {engine_->s_.inbox_flat.data() + ref.begin, ref.count};
}

void NodeContext::set_output(Value v) {
  DGAP_REQUIRE(v != kUndefined, "kUndefined is reserved");
  engine_->s_.node_output[index_] = v;
}

void NodeContext::set_output_for(NodeId key, Value v) {
  DGAP_REQUIRE(v != kUndefined, "kUndefined is reserved");
  engine_->edge_output_store(index_, key, v);
}

bool NodeContext::has_output() const {
  return engine_->s_.node_output[index_] != kUndefined;
}

bool NodeContext::has_output_for(NodeId key) const {
  return engine_->edge_output_lookup(index_, key) != kUndefined;
}

Value NodeContext::output() const {
  return engine_->s_.node_output[index_];
}

Value NodeContext::output_for(NodeId key) const {
  return engine_->edge_output_lookup(index_, key);
}

std::int64_t NodeContext::link_backlog(NodeId u) const {
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, u), "not a neighbor");
  if (!engine_->link_) return 0;
  return engine_->link_->backlog_words(index_, u);
}

int NodeContext::link_budget() const {
  if (!engine_->link_) return 0;
  return engine_->options_.congest_word_limit;
}

void NodeContext::terminate() {
  DGAP_REQUIRE(engine_->s_.node_output[index_] != kUndefined ||
                   engine_->edge_output_count(index_) > 0,
               "a node terminates only after assigning its outputs");
  engine_->s_.terminate_flag[index_] = 1;
}

bool NodeContext::terminated() const {
  return engine_->s_.terminate_flag[index_] != 0;
}

void NodeContext::idle() {
  DGAP_REQUIRE(!engine_->in_send_phase_, "idle() is only valid in onReceive");
  engine_->s_.idle_request[index_] = 1;
  if (shard_ != nullptr) shard_->any_idle = true;
}

// ---------------------------------------------------------------------------
// Engine — struct-of-arrays edge outputs.
// ---------------------------------------------------------------------------

void Engine::ensure_edge_out_pool() {
  if (edge_out_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(edge_out_init_mutex_);
  if (edge_out_ready_.load(std::memory_order_relaxed)) return;
  s_.edge_out_pool.assign(graph_.offsets().back(), kUndefined);
  s_.edge_out_count.assign(static_cast<std::size_t>(graph_.num_nodes()), 0);
  edge_out_ready_.store(true, std::memory_order_release);
}

Value Engine::edge_output_lookup(NodeId v, NodeId key) const {
  if (!edge_out_ready_.load(std::memory_order_acquire)) return kUndefined;
  const std::uint32_t slot = graph_.edge_slot(v, key);
  if (slot == Graph::kNoSlot) return kUndefined;
  return s_.edge_out_pool[slot];
}

void Engine::edge_output_store(NodeId v, NodeId key, Value value) {
  ensure_edge_out_pool();
  const std::uint32_t slot = graph_.edge_slot(v, key);
  DGAP_REQUIRE(slot != Graph::kNoSlot,
               "edge outputs are keyed by a neighbor index");
  Value& cell = s_.edge_out_pool[slot];
  if (cell == kUndefined) ++s_.edge_out_count[v];
  cell = value;
}

std::uint32_t Engine::edge_output_count(NodeId v) const {
  if (!edge_out_ready_.load(std::memory_order_acquire)) return 0;
  return s_.edge_out_count[v];
}

void Engine::materialize_edge_outputs(
    NodeId v, std::vector<std::pair<NodeId, Value>>& out) const {
  out.clear();
  if (!edge_out_ready_.load(std::memory_order_acquire)) return;
  if (s_.edge_out_count[v] == 0) return;
  const auto nb = graph_.neighbors(v);
  const std::uint32_t base = graph_.offsets()[v];
  for (std::size_t j = 0; j < nb.size(); ++j) {
    const Value val = s_.edge_out_pool[base + j];
    if (val != kUndefined) out.emplace_back(nb[j], val);
  }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const Graph& g, const Predictions& predictions,
               ProgramFactory factory, EngineOptions options,
               ThreadPool* shared_pool, EngineScratch* scratch)
    : graph_(g),
      predictions_(&predictions),
      options_(options),
      owned_scratch_(scratch ? nullptr : std::make_unique<EngineScratch>()),
      s_(scratch ? *scratch : *owned_scratch_) {
  DGAP_REQUIRE(factory != nullptr, "a program factory is required");
  DGAP_REQUIRE(options_.num_threads >= 1, "num_threads must be >= 1");
  const NodeId n = g.num_nodes();
  const std::size_t nu = static_cast<std::size_t>(n);
  programs_.clear();
  programs_.reserve(nu);
  s_.awake_nodes.clear();
  s_.awake_nodes.reserve(nu);
  // Struct-of-arrays node state. The active-neighbor pool starts as a
  // copy of the graph's CSR neighbor array (it shares the graph's offsets),
  // and every slot in [0, total) is rewritten, so a reused scratch cannot
  // leak a previous (larger) graph's tails into this run
  // (tests/scratch_reuse_test.cpp sweeps decreasing sizes to pin it).
  const std::size_t total_adj = g.offsets().back();
  s_.node_output.assign(nu, kUndefined);
  s_.an_pool.resize(total_adj);
  s_.an_count.resize(nu);
  for (NodeId v = 0; v < n; ++v) {
    programs_.push_back(factory(v));
    DGAP_REQUIRE(programs_.back() != nullptr, "factory returned null");
    const auto nb = g.neighbors(v);
    std::copy(nb.begin(), nb.end(), s_.an_pool.begin() + g.offsets()[v]);
    s_.an_count[v] = static_cast<std::uint32_t>(nb.size());
    s_.awake_nodes.push_back(v);
  }
  active_count_ = n;
  s_.node_active.assign(nu, 1);
  s_.terminate_flag.assign(nu, 0);
  s_.node_awake.assign(nu, 1);
  s_.idle_request.assign(nu, 0);
  // The edge-output pool is allocated lazily on first store; a fresh run
  // starts not-ready regardless of what a reused scratch still holds.
  // assign, not resize: a reused scratch carries round stamps from its
  // previous run, and a stale stamp equal to this run's current round
  // would resurrect a dead inbox slice.
  s_.inbox_ref.assign(nu, detail::InboxRef{});
  // A previous run that died mid-round (an exception out of a program
  // hook) can leave nonzero counts / stale worklists behind, so restore
  // every between-rounds invariant explicitly.
  s_.recv_count.assign(nu, 0);
  s_.recv_nodes.clear();
  s_.woken.clear();
  s_.next_awake.clear();
  s_.newly_terminated.clear();
  s_.touched_receivers.clear();
  s_.inbox_flat.clear();
  s_.shards.resize(static_cast<std::size_t>(options_.num_threads));
  for (auto& sh : s_.shards) {
    sh.arena.clear();
    sh.sends.clear();
    sh.channels_monotone = true;
    sh.any_idle = false;
    sh.route_idx.clear();
    sh.route_begin.clear();
    sh.route_cursor.clear();
    sh.any_long = false;
  }
  // Receiver-shard ownership: shard t owns [n*t/S, n*(t+1)/S) — the same
  // slicing run_sharded uses, a pure function of (n, S). The per-node
  // ownership map makes delivery routing a table lookup; only built when
  // there is more than one shard to route to.
  DGAP_REQUIRE(options_.num_threads <= 65535, "num_threads out of range");
  const std::size_t nshards = s_.shards.size();
  s_.recv_shards.resize(nshards);
  for (std::size_t t = 0; t < nshards; ++t) {
    auto& rs = s_.recv_shards[t];
    rs.lo = static_cast<NodeId>(nu * t / nshards);
    rs.hi = static_cast<NodeId>(nu * (t + 1) / nshards);
    rs.acct = detail::CongestAccount{};
    rs.touched.clear();
    rs.touched_first.clear();
    rs.delivered = 0;
    rs.region = 0;
    rs.newly_terminated.clear();
    rs.wake.clear();
    rs.next_awake.clear();
  }
  s_.send_base.assign(nshards + 1, 0);
  s_.merge_pos.assign(nshards, 0);
  if (nshards > 1) {
    s_.node_shard.resize(nu);
    for (std::size_t t = 0; t < nshards; ++t) {
      const auto& rs = s_.recv_shards[t];
      std::fill(s_.node_shard.begin() + rs.lo, s_.node_shard.begin() + rs.hi,
                static_cast<std::uint16_t>(t));
    }
  } else {
    s_.node_shard.clear();
  }
  if (options_.num_threads > 1) {
    if (shared_pool != nullptr) {
      DGAP_REQUIRE(shared_pool->num_slots() == options_.num_threads,
                   "shared pool slot count must equal num_threads");
      pool_ = shared_pool;
    } else {
      owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
      pool_ = owned_pool_.get();
    }
  }
  if (options_.congest_policy == CongestPolicy::kDefer) {
    link_ = std::make_unique<detail::LinkLayer>(g, options_.congest_word_limit);
  }
  // Message-reduction compilation (sim/compile.hpp). The knobs are cached
  // as flat flags for the per-send / per-record checks; the per-directed-
  // edge cache is addressed by Graph::edge_slot.
  compile_cache_ = options_.compile.cache_resends;
  compile_defaults_ = options_.compile.decode_defaults;
  if (compile_cache_) {
    s_.cache_state.assign(total_adj, 0);
    s_.cache_channel.assign(total_adj, 0);
    s_.cache_len.assign(total_adj, 0);
    s_.cache_words.assign(total_adj * detail::SendRecord::kInlineCap, 0);
    s_.cache_long.clear();  // lazily sized on the first long payload
  }
  // Trace spine: no sink => no virtual calls. detail() is a stable
  // property of the sink; cache the answer so the delivery path never
  // queries it per message.
  sink_ = options_.trace_sink;
  trace_messages_ =
      sink_ != nullptr && sink_->detail() >= TraceDetail::kMessages;
}

Engine::~Engine() = default;

template <typename Body>
void Engine::for_each_shard(const Body& body) {
  if (!pool_) {
    body(0);
    return;
  }
  pool_->run(body);
}

template <typename Body>
void Engine::run_sharded(std::size_t worklist_size, const Body& body) {
  const std::size_t shards = s_.shards.size();
  const std::size_t m = worklist_size;
  if (shards == 1) {
    body(0, 0, m);
    return;
  }
  for_each_shard([&](int s) {
    const std::size_t su = static_cast<std::size_t>(s);
    body(s, m * su / shards, m * (su + 1) / shards);
  });
}

void Engine::send_phase() {
  in_send_phase_ = true;
  run_sharded(s_.awake_nodes.size(),
              [this](int s, std::size_t lo, std::size_t hi) {
    auto& sh = s_.shards[static_cast<std::size_t>(s)];
    sh.arena.clear();
    sh.sends.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = s_.awake_nodes[i];
      sh.last_channel = INT_MIN;
      sh.default_active = false;   // declarations last one node-round
      NodeContext ctx(this, v, &sh);
      programs_[v]->on_send(ctx);
    }
  });
  in_send_phase_ = false;
}

void Engine::deliver_round_messages() {
  // Receiver-sharded delivery. The same four passes run at every shard
  // count S; with S = 1 (no pool) each pass runs inline on one shard.
  //
  //   A (over sender shards)   repair channel order, and route every
  //     record to the receiver shard owning its `to` — a stable counting
  //     sort of record indices, so each bucket preserves send order.
  //   B (over receiver shards) walk owned records in ascending global send
  //     order, running the compile cache, the per-shard message account,
  //     and the inbox counting. Each node's recv_count slot and each
  //     directed edge's cache line has exactly one writer.
  //   C (serial, O(shards + receivers)) merge the accounts in fixed shard
  //     order, prefix-sum the per-shard inbox regions, and merge the
  //     per-shard first-touch lists into the global first-touch order.
  //   D (over receiver shards) assign each owned receiver's slice inside
  //     this shard's region and scatter the owned records into it.
  //
  // Under kDefer pass B skips the inbox counting, and the
  // records go to the serial link layer instead of passes C and D.
  //
  // Why the result is a function of the round's sends alone, not of S: the
  // shard buffers are ordered by (sender, send order); the inbox order is
  // (sender, channel, send order), which differs only when some node sent
  // on a decreasing channel sequence. Pass A repairs that with a stable
  // sort of the send shard's own records — every record of a sender is in
  // that sender's shard, and send shards are ascending contiguous slices
  // of the awake worklist, so the per-shard sorts joined in shard order are
  // one global stable sort. Routing is stable and sender shards are
  // visited in index order, so each receiver's slice, and each directed
  // edge's cache hit/miss sequence (all of an edge's records meet in the
  // shard owning the receiver), follow that global order. Account totals
  // are order-independent reductions. The trace spine's receiver order is
  // recovered in pass C: each shard's touched list ascends in the global
  // index of the receiver's first record, so an S-way merge on those
  // indices is the global first-touch order. inbox_flat's layout depends
  // on S (shard regions), but nothing observes it — every consumer goes
  // through inbox_ref or touched_receivers.
  const int congest_limit = options_.congest_word_limit;
  const std::size_t S = s_.shards.size();
  const bool route = S > 1;
  const bool enforce = link_ != nullptr;

  // Per-sender-shard global index bases.
  s_.send_base[0] = 0;
  for (std::size_t k = 0; k < S; ++k) {
    s_.send_base[k + 1] =
        s_.send_base[k] + static_cast<std::uint32_t>(s_.shards[k].sends.size());
  }
  if (s_.send_base[S] == 0 && !enforce) {
    s_.touched_receivers.clear();  // a silent round delivers nothing
    return;
  }

  for_each_shard([&](int k) {
    auto& sh = s_.shards[static_cast<std::size_t>(k)];
    if (!sh.channels_monotone) {
      std::stable_sort(sh.sends.begin(), sh.sends.end(),
                       [](const detail::SendRecord& a,
                          const detail::SendRecord& b) {
                         return std::tie(a.from, a.channel) <
                                std::tie(b.from, b.channel);
                       });
      sh.channels_monotone = true;
    }
    if (!route) return;
    sh.any_long = false;
    sh.route_begin.assign(S + 1, 0);
    for (const auto& r : sh.sends) {
      sh.any_long |= r.len > detail::SendRecord::kInlineCap;
      ++sh.route_begin[s_.node_shard[r.to] + 1];
    }
    for (std::size_t t = 0; t < S; ++t) {
      sh.route_begin[t + 1] += sh.route_begin[t];
    }
    sh.route_cursor.assign(sh.route_begin.begin(), sh.route_begin.end() - 1);
    sh.route_idx.resize(sh.sends.size());
    for (std::uint32_t i = 0; i < sh.sends.size(); ++i) {
      sh.route_idx[sh.route_cursor[s_.node_shard[sh.sends[i].to]]++] = i;
    }
  });

  // When compiling, size the long-payload store here so pass B never
  // resizes a shared vector concurrently (with one shard, any_long stays
  // false and the cache sizes the store itself).
  bool any_long = false;
  for (const auto& sh : s_.shards) any_long |= sh.any_long;
  if (compile_cache_ && any_long &&
      s_.cache_long.size() < s_.cache_state.size()) {
    s_.cache_long.resize(s_.cache_state.size());
  }

  // Pass B. Every sent message is charged — including messages addressed
  // to a node that terminated in an earlier round. The model's cost
  // accounting is sender-side: the sender cannot know the receiver is gone
  // until the termination notice arrives (next round's active_neighbors
  // view), so the words crossed the wire and count toward total_messages/
  // total_words. Delivery, however, drops them: a terminated node has no
  // receive phase, and resurrected inboxes would violate the model. Pinned
  // by Engine.DropsToTerminatedAreChargedNotDelivered in engine_test.cpp.
  // The cache also absorbs default-suppressed records (the receiver's
  // memory advances either way).
  //
  // Passes B and D visit receiver shard t's records in ascending global
  // send order: sender shards in index order, each routing bucket
  // (route_idx[route_begin[t], route_begin[t + 1])) in send order. With
  // one shard the bucket is the send buffer itself.
  for_each_shard([&](int t) {
    const std::size_t tu = static_cast<std::size_t>(t);
    auto& rs = s_.recv_shards[tu];
    rs.touched.clear();
    rs.touched_first.clear();
    detail::CongestAccount acct;
    std::uint32_t delivered = 0;
    for (std::size_t k = 0; k < S; ++k) {
      auto& sh = s_.shards[k];
      const Value* arena = sh.arena.data();
      const std::uint32_t je =
          route ? sh.route_begin[tu + 1]
                : static_cast<std::uint32_t>(sh.sends.size());
      for (std::uint32_t j = route ? sh.route_begin[tu] : 0; j < je; ++j) {
        const std::uint32_t idx = route ? sh.route_idx[j] : j;
        auto& r = sh.sends[idx];
        if (compile_cache_ && cache_check_and_update(r, r.payload(arena))) {
          r.flags |= detail::SendRecord::kSuppressed;
        }
        acct.charge(r.len, r.channel, congest_limit,
                    (r.flags & detail::SendRecord::kSuppressed) != 0);
        // Under kDefer the link layer decides what arrives.
        if (enforce || !s_.node_active[r.to]) continue;
        if (s_.recv_count[r.to]++ == 0) {
          rs.touched.push_back(r.to);
          if (route) rs.touched_first.push_back(s_.send_base[k] + idx);
        }
        ++delivered;
      }
    }
    rs.acct = acct;
    rs.delivered = delivered;
  });

  for (const auto& rs : s_.recv_shards) acct_.merge_from(rs.acct);
  if (enforce) {
    deliver_enforced();
    return;
  }
  std::uint32_t total = 0;
  for (auto& rs : s_.recv_shards) {
    rs.region = total;
    total += rs.delivered;
  }
  s_.inbox_flat.resize(total);
  if (route) {
    s_.touched_receivers.clear();
    std::fill(s_.merge_pos.begin(), s_.merge_pos.end(), 0);
    for (;;) {
      std::size_t best = S;
      std::uint32_t best_first = 0;
      for (std::size_t t = 0; t < S; ++t) {
        const auto& rs = s_.recv_shards[t];
        const std::size_t pos = s_.merge_pos[t];
        if (pos >= rs.touched_first.size()) continue;
        const std::uint32_t f = rs.touched_first[pos];
        if (best == S || f < best_first) {
          best = t;
          best_first = f;
        }
      }
      if (best == S) break;
      s_.touched_receivers.push_back(
          s_.recv_shards[best].touched[s_.merge_pos[best]]);
      ++s_.merge_pos[best];
    }
  }

  // Pass D. Terminated receivers were never counted, so their messages
  // are dropped here.
  for_each_shard([&](int t) {
    const std::size_t tu = static_cast<std::size_t>(t);
    auto& rs = s_.recv_shards[tu];
    std::uint32_t cursor = rs.region;
    for (const NodeId to : rs.touched) {
      s_.inbox_ref[to] = {cursor, 0, round_};
      cursor += s_.recv_count[to];
      s_.recv_count[to] = 0;  // restore the all-zero invariant for next round
    }
    for (std::size_t k = 0; k < S; ++k) {
      const auto& sh = s_.shards[k];
      const Value* arena = sh.arena.data();
      const std::uint32_t je =
          route ? sh.route_begin[tu + 1]
                : static_cast<std::uint32_t>(sh.sends.size());
      for (std::uint32_t j = route ? sh.route_begin[tu] : 0; j < je; ++j) {
        const auto& r = sh.sends[route ? sh.route_idx[j] : j];
        if (!s_.node_active[r.to]) continue;
        auto& ref = s_.inbox_ref[r.to];
        s_.inbox_flat[ref.begin + ref.count++] =
            Message{r.from, static_cast<int>(r.channel),
                    WordSpan(r.payload(arena), r.len),
                    (r.flags & detail::SendRecord::kSuppressed) != 0};
      }
    }
  });
  // With one shard its touched list is the first-touch order.
  if (!route) std::swap(s_.touched_receivers, s_.recv_shards[0].touched);
}

void Engine::deliver_enforced() {
  // Feed the round's sends to the link layer in canonical (sender, channel,
  // send order) — the send shards in index order, each already repaired by
  // pass A — so the per-link FIFO queues inherit exactly the inbox order.
  // All link state mutation is serial; num_threads cannot influence the
  // schedule.
  auto& link = *link_;
  link.begin_round(round_);
  for (const auto& sh : s_.shards) {
    const Value* arena = sh.arena.data();
    for (const auto& r : sh.sends) {
      if (r.flags & detail::SendRecord::kSuppressed) {
        // A suppressed message never crosses the wire, so it cannot be
        // deferred or charged against a link budget; it is
        // synthesized at the receiver in its send round (the free lunch —
        // compile_test pins the no-double-count property).
        if (s_.node_active[r.to]) link.deliver_suppressed(r, r.payload(arena));
        continue;
      }
      link.ingest(r, r.payload(arena));
    }
  }
  link.finish_round(s_.node_active.data());

  // Counting-sort scatter of the cleared messages. The link layer emits
  // them with ascending senders and FIFO per link, so each receiver's slice
  // comes out in (sender, channel, send order) like the unenforced path —
  // for carried-over traffic, ordered by the round the words finished
  // crossing.
  const auto& deliveries = link.deliveries();
  s_.touched_receivers.clear();
  for (const auto& d : deliveries) {
    if (s_.recv_count[d.to]++ == 0) s_.touched_receivers.push_back(d.to);
  }
  std::uint32_t cursor = 0;
  for (const NodeId to : s_.touched_receivers) {
    s_.inbox_ref[to] = {cursor, 0, round_};
    cursor += s_.recv_count[to];
    s_.recv_count[to] = 0;  // restore the all-zero invariant for next round
  }
  s_.inbox_flat.resize(deliveries.size());
  for (const auto& d : deliveries) {
    auto& ref = s_.inbox_ref[d.to];
    s_.inbox_flat[ref.begin + ref.count++] =
        Message{d.from, static_cast<int>(d.channel), WordSpan(d.words, d.len),
                d.suppressed};
  }
}

bool Engine::cache_check_and_update(const detail::SendRecord& r,
                                    const Value* words) {
  // One cache slot per directed edge, addressed by the graph's edge slot
  // of (sender, receiver) — the receiver-memory model: "what was the
  // last message delivered on this edge?". A hit means the receiver can
  // reconstruct the payload from its own memory, so the re-send need not
  // cross the wire.
  const std::uint32_t slot = graph_.edge_slot(r.from, r.to);
  DGAP_ASSERT(slot != Graph::kNoSlot, "send record addresses a non-neighbor");
  constexpr std::uint32_t kCap = detail::SendRecord::kInlineCap;
  const bool small = r.len <= kCap;
  const std::uint8_t want_state = small ? 1 : 2;
  bool hit = s_.cache_state[slot] == want_state &&
             s_.cache_channel[slot] == r.channel && s_.cache_len[slot] == r.len;
  if (hit) {
    const Value* stored = small ? s_.cache_words.data() + slot * kCap
                                : s_.cache_long[slot].data();
    for (std::uint32_t i = 0; i < r.len && hit; ++i) {
      hit = stored[i] == words[i];
    }
  }
  if (hit) return true;
  s_.cache_state[slot] = want_state;
  s_.cache_channel[slot] = r.channel;
  s_.cache_len[slot] = r.len;
  if (small) {
    for (std::uint32_t i = 0; i < r.len; ++i) {
      s_.cache_words[slot * kCap + i] = words[i];
    }
  } else {
    if (s_.cache_long.size() < s_.cache_state.size()) {
      s_.cache_long.resize(s_.cache_state.size());
    }
    s_.cache_long[slot].assign(words, words + r.len);
  }
  return false;
}

const std::vector<NodeId>& Engine::collect_delivery_wakes() {
  // A delivery to a sleeping node wakes it for this round's receive phase
  // (it skipped the send phase, which is consistent with its quiescence
  // promise — the wake event postdates the send phase anyway). Receivers
  // in touched_receivers are already filtered to active nodes.
  s_.woken.clear();
  for (const NodeId to : s_.touched_receivers) {
    if (!s_.node_awake[to]) {
      s_.node_awake[to] = 1;
      s_.woken.push_back(to);
    }
  }
  if (s_.woken.empty()) return s_.awake_nodes;  // the common, no-idle case
  std::sort(s_.woken.begin(), s_.woken.end());
  s_.recv_nodes.clear();
  s_.recv_nodes.reserve(s_.awake_nodes.size() + s_.woken.size());
  std::merge(s_.awake_nodes.begin(), s_.awake_nodes.end(), s_.woken.begin(),
             s_.woken.end(), std::back_inserter(s_.recv_nodes));
  return s_.recv_nodes;
}

void Engine::trace_deliveries() {
  // Walk the freshly scattered inbox slices — receivers in first-touch
  // order, each slice already in canonical (sender, channel, send order) —
  // so the emitted stream is exactly the round's inbox contents and is
  // bit-identical across num_threads (the scatter itself is). Runs between
  // delivery and the receive phase, on the main thread.
  for (const NodeId to : s_.touched_receivers) {
    const auto& ref = s_.inbox_ref[to];
    for (std::uint32_t i = 0; i < ref.count; ++i) {
      const Message& m = s_.inbox_flat[ref.begin + i];
      sink_->on_message({round_, m.from, to, m.channel, m.words,
                         m.suppressed});
    }
  }
}

void Engine::receive_phase(const std::vector<NodeId>& recv) {
  // Safe to shard: a program's receive hook writes only its own node's
  // state (output, edge outputs, terminate/idle requests) and reads
  // neighbor state frozen at the start of the round (active flags and
  // outputs only change in process_terminations, after this phase joins).
  // The shard pointer is passed for the idle() flag only; send() stays
  // guarded by in_send_phase_.
  run_sharded(recv.size(), [this, &recv](int s, std::size_t lo,
                                         std::size_t hi) {
    auto& sh = s_.shards[static_cast<std::size_t>(s)];
    sh.any_idle = false;
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = recv[i];
      NodeContext ctx(this, v, &sh);
      programs_[v]->on_receive(ctx);
    }
  });
}

void Engine::process_terminations(const std::vector<NodeId>& recv,
                                  std::vector<int>& termination_round) {
  // Termination processing, sharded by receiver ownership. Three passes:
  //   T1 (over recv slices)      detect terminations. Only nodes whose
  //       hooks ran this round can have requested termination, and every
  //       such node is on the receive worklist, so the sweep is O(recv),
  //       not O(n). Slices of the ascending worklist are contiguous, so
  //       concatenating the per-slot lists in slot order is ascending; trace
  //       sinks then fire serially over that list, in ascending node order
  //       as the spine contract requires.
  //   T2 (over receiver shards)  charge the Section 7 notices (one message
  //       carrying the node's outputs to each still-active neighbor) for
  //       owned neighbors into the shard's account, drop the terminated
  //       nodes from their active-neighbor prefixes, void their idle
  //       promises (a termination is a wake event: the neighbor's view
  //       changes next round), and wake owned sleepers. Every shard scans
  //       the full terminated-node adjacency but writes only owned nodes'
  //       slots; node_active is frozen after T1, so cross-shard reads are
  //       safe.
  //   T3 (over receiver shards)  rebuild the awake worklist: each shard
  //       merges its owned sub-range of recv (a binary search — recv is
  //       ascending) with its own woken sleepers (disjoint from recv: they
  //       were asleep and received nothing), filtered by liveness and this
  //       round's idle requests. Ownership ranges are contiguous and
  //       ascending, so concatenating per-shard segments in shard order is
  //       the ascending rebuild.
  const std::size_t S = s_.shards.size();
  const int congest_limit = options_.congest_word_limit;
  run_sharded(recv.size(), [&](int s, std::size_t lo, std::size_t hi) {
    auto& rs = s_.recv_shards[static_cast<std::size_t>(s)];
    rs.newly_terminated.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = recv[i];
      if (!s_.terminate_flag[v]) continue;
      s_.node_active[v] = 0;
      termination_round[v] = round_;
      rs.newly_terminated.push_back(v);
    }
  });
  if (S == 1) {
    std::swap(s_.newly_terminated, s_.recv_shards[0].newly_terminated);
  } else {
    s_.newly_terminated.clear();
    for (const auto& rs : s_.recv_shards) {
      s_.newly_terminated.insert(s_.newly_terminated.end(),
                                 rs.newly_terminated.begin(),
                                 rs.newly_terminated.end());
    }
  }
  active_count_ -= static_cast<NodeId>(s_.newly_terminated.size());
  if (sink_) {
    for (const NodeId v : s_.newly_terminated) {
      materialize_edge_outputs(v, term_edge_outputs_);
      sink_->on_termination(round_, v, s_.node_output[v], term_edge_outputs_);
    }
  }
  bool any_idle = false;
  for (const auto& sh : s_.shards) any_idle |= sh.any_idle;
  if (s_.newly_terminated.empty() && !any_idle && s_.woken.empty()) return;

  if (!s_.newly_terminated.empty()) {
    for_each_shard([&](int t) {
      auto& rs = s_.recv_shards[static_cast<std::size_t>(t)];
      rs.touched.clear();
      rs.wake.clear();
      detail::CongestAccount acct;
      const NodeId lo = rs.lo, hi = rs.hi;
      // Neighbors are deduplicated via the recv_count scratch (all-zero
      // between rounds, restored below).
      for (const NodeId v : s_.newly_terminated) {
        const std::size_t notice_words = 1 + edge_output_count(v);
        for (NodeId u : graph_.neighbors(v)) {
          if (u < lo || u >= hi || !s_.node_active[u]) continue;
          acct.charge(notice_words, /*channel=*/0, congest_limit);
          if (s_.recv_count[u]++ == 0) rs.touched.push_back(u);
        }
      }
      rs.acct = acct;
      // Compact each affected prefix in one linear pass: the view never
      // contains inactive nodes, so filtering on the active flag removes
      // exactly this round's batch.
      for (const NodeId u : rs.touched) {
        s_.recv_count[u] = 0;
        NodeId* live = s_.an_pool.data() + graph_.offsets()[u];
        const std::uint32_t count = s_.an_count[u];
        std::uint32_t w = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
          const NodeId x = live[i];
          if (s_.node_active[x]) live[w++] = x;
        }
        s_.an_count[u] = w;
        s_.idle_request[u] = 0;
        if (!s_.node_awake[u]) {
          s_.node_awake[u] = 1;
          rs.wake.push_back(u);
        }
      }
      std::sort(rs.wake.begin(), rs.wake.end());
    });
    for (const auto& rs : s_.recv_shards) acct_.merge_from(rs.acct);
  } else {
    for (auto& rs : s_.recv_shards) rs.wake.clear();
  }

  for_each_shard([&](int t) {
    auto& rs = s_.recv_shards[static_cast<std::size_t>(t)];
    rs.next_awake.clear();
    std::size_t ri = static_cast<std::size_t>(
        std::lower_bound(recv.begin(), recv.end(), rs.lo) - recv.begin());
    const std::size_t rn = static_cast<std::size_t>(
        std::lower_bound(recv.begin(), recv.end(), rs.hi) - recv.begin());
    std::size_t wi = 0;
    const std::size_t wn = rs.wake.size();
    while (ri < rn || wi < wn) {
      NodeId v;
      if (wi >= wn || (ri < rn && recv[ri] < rs.wake[wi])) {
        v = recv[ri++];
      } else {
        v = rs.wake[wi++];
      }
      if (!s_.node_active[v]) {
        s_.node_awake[v] = 0;
        s_.idle_request[v] = 0;
        continue;
      }
      if (s_.idle_request[v]) {
        s_.idle_request[v] = 0;
        s_.node_awake[v] = 0;
        continue;
      }
      s_.node_awake[v] = 1;
      rs.next_awake.push_back(v);
    }
  });
  // recv may alias awake_nodes; it is dead from here on.
  if (S == 1) {
    std::swap(s_.awake_nodes, s_.recv_shards[0].next_awake);
    return;
  }
  s_.next_awake.clear();
  for (const auto& rs : s_.recv_shards) {
    s_.next_awake.insert(s_.next_awake.end(), rs.next_awake.begin(),
                         rs.next_awake.end());
  }
  std::swap(s_.awake_nodes, s_.next_awake);
}

RunResult Engine::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const NodeId n = graph_.num_nodes();
  RunResult result;
  result.termination_round.assign(static_cast<std::size_t>(n), -1);

  if (sink_) sink_->on_run_begin(n, options_);
  // Phase profiler (EngineOptions::profile_phases): one clock read per
  // stage boundary, so adjacent spans share a timestamp and the per-round
  // sum never exceeds the wall time between the boundaries. lap() costs
  // nothing when profiling is off.
  const bool prof = options_.profile_phases;
  auto mark = std::chrono::steady_clock::now();
  const auto lap = [&mark, prof]() -> std::int64_t {
    if (!prof) return 0;
    const auto now = std::chrono::steady_clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark);
    mark = now;
    return ns.count();
  };
  while (active_count_ > 0 && round_ < options_.max_rounds) {
    if (s_.awake_nodes.empty() &&
        (!link_ || link_->pending_backlog() == 0)) {
      // Every active node is idle and no traffic is in flight: no event
      // can ever wake anyone again, so the network is permanently
      // quiescent. Report the run as incomplete instead of spinning the
      // round counter to max_rounds.
      break;
    }
    ++round_;
    if (sink_) sink_->on_round_begin(round_, active_count_);
    PhaseProfile rp;
    lap();
    send_phase();
    rp.send_ns = lap();
    deliver_round_messages();
    const std::vector<NodeId>& recv = collect_delivery_wakes();
    (link_ ? rp.link_ns : rp.scatter_ns) = lap();
    if (trace_messages_) {
      trace_deliveries();
      rp.trace_ns = lap();
    }
    receive_phase(recv);
    rp.receive_ns = lap();
    process_terminations(recv, result.termination_round);
    rp.mutate_ns = lap();
    if (prof) {
      result.phase_ns.accumulate(rp);
      if (sink_) sink_->on_round_profile(round_, rp);
    }
  }

  result.completed = (active_count_ == 0);
  result.rounds = round_;
  result.outputs = s_.node_output;
  result.edge_outputs.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    materialize_edge_outputs(v, result.edge_outputs[v]);
  }
  acct_.fold_into(result);
  if (link_) link_->export_metrics(result);
  if (sink_) sink_->on_run_end(result);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

const Predictions& empty_predictions() {
  static const Predictions kEmpty;
  return kEmpty;
}

RunResult run_algorithm(const Graph& g, ProgramFactory factory,
                        EngineOptions options, ThreadPool* shared_pool) {
  Engine engine(g, empty_predictions(), std::move(factory), options,
                shared_pool);
  return engine.run();
}

RunResult run_with_predictions(const Graph& g, const Predictions& predictions,
                               ProgramFactory factory, EngineOptions options,
                               ThreadPool* shared_pool) {
  Engine engine(g, predictions, std::move(factory), options, shared_pool);
  return engine.run();
}

std::vector<int> completion_round_per_component(const Graph& g,
                                                const RunResult& result) {
  DGAP_REQUIRE(result.termination_round.size() ==
                   static_cast<std::size_t>(g.num_nodes()),
               "result does not match the graph");
  return completion_round_per_component(connected_components(g), result);
}

std::vector<int> completion_round_per_component(
    const std::vector<std::vector<NodeId>>& components,
    const RunResult& result) {
  std::vector<int> out;
  out.reserve(components.size());
  for (const auto& comp : components) {
    int worst = 0;
    for (NodeId v : comp) {
      DGAP_REQUIRE(static_cast<std::size_t>(v) <
                       result.termination_round.size(),
                   "components do not match the result");
      const int t = result.termination_round[v];
      if (t < 0) {
        worst = -1;
        break;
      }
      worst = std::max(worst, t);
    }
    out.push_back(worst);
  }
  return out;
}

}  // namespace dgap
