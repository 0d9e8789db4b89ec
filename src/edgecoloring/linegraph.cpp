#include "edgecoloring/linegraph.hpp"

#include <algorithm>
#include <map>

#include "common/require.hpp"

namespace dgap {

namespace {

/// Largest identifier bound d whose line-graph bound (d+1)² fits an int64.
constexpr std::int64_t kMaxLineGraphD = 3'037'000'498;

/// Identifier bound of the line graph: (d+1)², checked against overflow.
std::int64_t line_graph_id_bound(std::int64_t d) {
  DGAP_REQUIRE(d >= 1 && d <= kMaxLineGraphD,
               "line-graph identifiers (d+1)² overflow int64");
  return (d + 1) * (d + 1);
}

/// Distinct line-graph identifier of the edge {a, b} (endpoint ids),
/// in [1, (d+1)²); d must have passed line_graph_id_bound.
Value edge_identifier(Value a, Value b, std::int64_t d) {
  const Value lo = std::min(a, b), hi = std::max(a, b);
  return lo * (d + 1) + hi;
}

}  // namespace

int line_graph_linial_total_rounds(std::int64_t d, int delta) {
  const int delta_l = std::max(2 * delta - 2, 0);
  return linial_schedule(line_graph_id_bound(d), delta_l,
                         /*reduce_all_classes=*/true)
      .total_rounds;
}

void LineGraphLinialPhase::ensure_schedule(NodeContext& ctx) {
  if (scheduled_) return;
  delta_l_ = std::max(2 * static_cast<Value>(ctx.delta()) - 2, Value{0});
  schedule_ = linial_schedule(line_graph_id_bound(ctx.d()),
                              static_cast<int>(delta_l_),
                              /*reduce_all_classes=*/true);
  neighbors_ = ctx.neighbors();
  edge_color_.assign(neighbors_.size(), kUndefined);
  heard_.resize(neighbors_.size());
  std::size_t pos = 0;
  for (NodeId u : ctx.active_neighbors()) {
    pos = neighbor_position(neighbors_, u, pos);
    if (ctx.output_for(u) == kUndefined) {
      edge_color_[pos] =
          delta_l_ == 0
              ? 0
              : edge_identifier(ctx.id(), ctx.neighbor_id(u), ctx.d()) - 1;
    }
  }
  scheduled_ = true;
}

Value LineGraphLinialPhase::edge_palette_color(NodeId u) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), u);
  if (it == neighbors_.end() || *it != u) return kUndefined;
  const Value c =
      edge_color_[static_cast<std::size_t>(it - neighbors_.begin())];
  return c == kUndefined ? kUndefined : c + 1;
}

const std::vector<Value>& LineGraphLinialPhase::adjacent_colors(
    std::size_t p, Value my_id) {
  adjacent_.clear();
  for (std::size_t w = 0; w < edge_color_.size(); ++w) {
    if (w != p && edge_color_[w] != kUndefined) {
      adjacent_.push_back(edge_color_[w]);
    }
  }
  const std::span<const Value> pairs = heard_[p].pairs;
  for (std::size_t i = 0; i < pairs.size(); i += 2) {
    if (pairs[i] != my_id) adjacent_.push_back(pairs[i + 1]);
  }
  return adjacent_;
}

void LineGraphLinialPhase::on_send(NodeContext& ctx, Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return;
  // [U, (co-endpoint id, color)*U, C, output colors*C]. The co-endpoint id
  // lets the receiver identify the shared edge and the rest of the list
  // gives the adjacent-edge constraints at this endpoint.
  words_.assign(1, 0);
  for (std::size_t p = 0; p < neighbors_.size(); ++p) {
    if (edge_color_[p] == kUndefined) continue;
    words_.push_back(ctx.neighbor_id(neighbors_[p]));
    words_.push_back(edge_color_[p]);
  }
  words_[0] = static_cast<Value>(words_.size() / 2);
  const std::size_t used_at = words_.size();
  words_.push_back(0);
  for (NodeId u : neighbors_) {
    const Value c = ctx.output_for(u);
    if (c != kUndefined) words_.push_back(c);
  }
  words_[used_at] = static_cast<Value>(words_.size() - used_at - 1);
  ch.broadcast(words_);
}

PhaseProgram::Status LineGraphLinialPhase::on_receive(NodeContext& ctx,
                                                      Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return Status::kFinished;
  ++step_;
  // Prune edges whose co-endpoint vanished (treated as crashed: its edges
  // leave the remaining problem) and edges colored meanwhile by a
  // concurrently running uniform algorithm (Parallel template).
  for (std::size_t p = 0; p < neighbors_.size(); ++p) {
    const NodeId u = neighbors_[p];
    if (edge_color_[p] != kUndefined &&
        (!ctx.neighbor_active(u) || ctx.output_for(u) != kUndefined)) {
      edge_color_[p] = kUndefined;
    }
  }
  std::fill(heard_.begin(), heard_.end(), Heard{});
  std::size_t pos = 0;
  for (const Message* m : ch.inbox()) {
    pos = neighbor_position(neighbors_, m->from, pos);
    const WordSpan& w = m->words;
    const auto cnt = static_cast<std::size_t>(w.at(0));
    const auto used_cnt = static_cast<std::size_t>(w.at(1 + 2 * cnt));
    DGAP_ASSERT(w.size() == 2 + 2 * cnt + used_cnt,
                "malformed line-graph Linial broadcast");
    heard_[pos] = {{w.data() + 1, 2 * cnt},
                   {w.data() + 2 + 2 * cnt, used_cnt}};
  }

  const Value my_id = ctx.id();
  const int num_steps = static_cast<int>(schedule_.steps.size());
  if (step_ <= num_steps) {
    const LinialStep step =
        schedule_.steps[static_cast<std::size_t>(step_ - 1)];
    next_color_ = edge_color_;
    for (std::size_t p = 0; p < edge_color_.size(); ++p) {
      if (edge_color_[p] == kUndefined) continue;
      next_color_[p] =
          linial_recolor(edge_color_[p], adjacent_colors(p, my_id), step);
    }
    edge_color_.swap(next_color_);
  } else if (step_ <= num_steps + schedule_.reduction_rounds) {
    const Value target = schedule_.final_colors - (step_ - num_steps);
    for (std::size_t p = 0; p < edge_color_.size(); ++p) {
      if (edge_color_[p] != target) continue;
      std::vector<bool> used(static_cast<std::size_t>(delta_l_ + 1), false);
      auto mark = [&](Value c) {
        if (c >= 0 && c <= delta_l_) used[static_cast<std::size_t>(c)] = true;
      };
      for (Value c : adjacent_colors(p, my_id)) mark(c);
      // Colors already OUTPUT on adjacent edges (palette values are
      // 1-based; internal colors 0-based).
      for (NodeId w : neighbors_) {
        const Value out = ctx.output_for(w);
        if (out != kUndefined) mark(out - 1);
      }
      for (Value out : heard_[p].outputs) mark(out - 1);
      const auto free_color = std::find(used.begin(), used.end(), false);
      DGAP_ASSERT(free_color != used.end(),
                  "the 2Δ−1 palette always has a free color");
      edge_color_[p] = free_color - used.begin();
    }
  } else {
    for (Value c : edge_color_) {
      DGAP_ASSERT(c == kUndefined || (c >= 0 && c <= delta_l_),
                  "final line-graph colors must fit the palette");
    }
    done_ = true;
    return Status::kFinished;
  }
  return Status::kRunning;
}

PhaseProgram::Status EdgeColorEmitPhase::on_receive(NodeContext& ctx,
                                                    Channel&) {
  if (ctx.degree() == 0) {
    ctx.set_output(0);
    ctx.terminate();
    return Status::kFinished;
  }
  for (NodeId u : ctx.neighbors()) {
    if (ctx.has_output_for(u)) continue;
    const Value c = color_(u);
    if (c != kUndefined) ctx.set_output_for(u, c);
  }
  ctx.terminate();
  return Status::kFinished;
}

void EdgeColorClassEmitPhase::on_send(NodeContext& ctx, Channel& ch) {
  // Broadcast the colors already output on this node's edges so both
  // endpoints of every emitting edge agree on the forbidden set.
  std::vector<Value> words;
  for (NodeId u : ctx.neighbors()) {
    const Value c = ctx.output_for(u);
    if (c != kUndefined) words.push_back(c);
  }
  words.insert(words.begin(), static_cast<Value>(words.size()));
  ch.broadcast(words);
}

PhaseProgram::Status EdgeColorClassEmitPhase::on_receive(NodeContext& ctx,
                                                         Channel& ch) {
  ++step_;
  if (ctx.degree() == 0) {
    ctx.set_output(0);
    ctx.terminate();
    return Status::kFinished;
  }
  const Value palette =
      std::max<Value>(1, 2 * static_cast<Value>(ctx.delta()) - 1);
  std::map<NodeId, std::vector<Value>> neighbor_used;
  for (const Message* m : ch.inbox()) {
    const auto cnt = static_cast<std::size_t>(m->words.at(0));
    auto& used = neighbor_used[m->from];
    for (std::size_t i = 0; i < cnt; ++i) used.push_back(m->words.at(1 + i));
  }
  if (step_ <= palette) {
    for (NodeId u : ctx.active_neighbors()) {
      if (ctx.has_output_for(u)) continue;
      if (color_(u) != step_) continue;
      std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
      auto mark = [&](Value c) {
        if (c >= 1 && c <= palette) used[static_cast<std::size_t>(c)] = true;
      };
      for (NodeId w : ctx.neighbors()) mark(ctx.output_for(w));
      auto it = neighbor_used.find(u);
      if (it != neighbor_used.end()) {
        for (Value c : it->second) mark(c);
      }
      Value fresh = kUndefined;
      for (Value c = 1; c <= palette; ++c) {
        if (!used[static_cast<std::size_t>(c)]) {
          fresh = c;
          break;
        }
      }
      DGAP_ASSERT(fresh != kUndefined,
                  "2Δ−1 exceeds the two endpoints' used colors");
      ctx.set_output_for(u, fresh);
    }
  }
  bool complete = true;
  for (NodeId u : ctx.neighbors()) {
    if (ctx.neighbor_active(u) && ctx.output_for(u) == kUndefined) {
      complete = false;
    }
  }
  if (complete) {
    // Edges to terminated co-endpoints were colored before termination.
    ctx.terminate();
    return Status::kFinished;
  }
  return step_ > palette ? Status::kFinished : Status::kRunning;
}

namespace {

class LineGraphEdgeColoringPhase final : public PhaseProgram {
 public:
  void on_send(NodeContext& ctx, Channel& ch) override {
    if (emit_) {
      emit_->on_send(ctx, ch);
    } else {
      part1_.on_send(ctx, ch);
    }
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    if (!emit_) {
      if (part1_.on_receive(ctx, ch) == Status::kFinished) {
        emit_ = std::make_unique<EdgeColorEmitPhase>(
            [this](NodeId u) { return part1_.edge_palette_color(u); });
      }
      return Status::kRunning;
    }
    return emit_->on_receive(ctx, ch);
  }

 private:
  LineGraphLinialPhase part1_;
  std::unique_ptr<EdgeColorEmitPhase> emit_;
};

}  // namespace

PhaseFactory make_line_graph_edge_coloring_reference() {
  return [](NodeId) { return std::make_unique<LineGraphEdgeColoringPhase>(); };
}

ProgramFactory line_graph_edge_coloring_algorithm() {
  return phase_as_algorithm(make_line_graph_edge_coloring_reference());
}

}  // namespace dgap
