#include "coloring/linial.hpp"

#include <algorithm>
#include <limits>

#include "common/math_util.hpp"
#include "common/require.hpp"
#include "mis/algorithms.hpp"

namespace dgap {

LinialSchedule linial_schedule(std::int64_t d, int delta,
                               bool reduce_all_classes, bool kw_reduction) {
  DGAP_REQUIRE(d >= 1, "identifier bound must be positive");
  DGAP_REQUIRE(delta >= 0, "max degree must be non-negative");
  DGAP_REQUIRE(!(reduce_all_classes && kw_reduction),
               "output-respecting reduction and KW blocks are exclusive");
  LinialSchedule s;
  s.delta = delta;
  if (delta == 0) {
    // No conflicts possible: everyone can take color 0 right away.
    return s;  // one round: the final announce
  }
  std::int64_t m = d;  // colors are 0..d-1 initially (identifier − 1)
  while (true) {
    // Smallest polynomial degree k whose set system can encode m colors.
    std::int64_t k = 1, q = 0;
    for (;; ++k) {
      DGAP_REQUIRE(k <= 64, "Linial degree search overflow");
      q = next_prime(k * delta + 1);
      if (ipow_sat(q, static_cast<int>(k + 1)) >= m) break;
    }
    const std::int64_t m_new = q * q;
    if (m_new >= m) break;  // fixed point: palette no longer shrinks
    s.steps.push_back({k, q});
    m = m_new;
  }
  s.final_colors = m;
  // The class tail recolors classes colors−1 down to its floor.
  const std::int64_t width = static_cast<std::int64_t>(delta) + 1;
  const std::int64_t floor = reduce_all_classes ? 0 : width;
  auto tail_rounds = [&](std::int64_t colors) {
    return std::max<std::int64_t>(colors - floor, 0);
  };
  std::int64_t rounds = tail_rounds(m);
  s.class_top = m - 1;
  if (kw_reduction) {
    // Kuhn–Wattenhofer block stages cost Δ+1 rounds each and roughly halve
    // the palette; they only pay off while the palette is large, so KW is
    // used only if strictly shorter than the plain class tail (both are
    // pure functions of (d, Δ), so every node picks the same one).
    int stages = 0;
    std::int64_t mk = m;
    while (mk > 2 * width) {
      ++stages;
      mk = ceil_div(mk, 2 * width) * width;
    }
    const std::int64_t kw_rounds = stages * width + tail_rounds(mk);
    if (kw_rounds < rounds) {
      s.kw_stages = stages;
      s.class_top = mk - 1;
      rounds = kw_rounds;
    }
  }
  const auto num_steps = static_cast<std::int64_t>(s.steps.size());
  DGAP_REQUIRE(rounds <= std::numeric_limits<int>::max() - num_steps - 1,
               "Linial round count overflows int: the O(Δ²) palette is too "
               "large for this Δ");
  s.reduction_rounds = static_cast<int>(rounds);
  s.total_rounds = static_cast<int>(num_steps + rounds + 1);
  return s;
}

LinialReductionStep LinialSchedule::reduction(int i) const {
  DGAP_ASSERT(i >= 0 && i < reduction_rounds, "reduction round out of range");
  const Value width = static_cast<Value>(delta) + 1;
  const Value kw_rounds = kw_stages * width;
  if (i < kw_rounds) {
    const Value t = i % width;
    return {2 * width, width + t, t == delta};
  }
  return {0, class_top - (i - kw_rounds), false};
}

int linial_total_rounds(std::int64_t d, int delta) {
  return linial_schedule(d, delta).total_rounds;
}

int linial_total_rounds_respecting(std::int64_t d, int delta) {
  return linial_schedule(d, delta, /*reduce_all_classes=*/true).total_rounds;
}

int linial_total_rounds_kw(std::int64_t d, int delta) {
  return linial_schedule(d, delta, false, /*kw_reduction=*/true).total_rounds;
}

namespace {

/// Evaluates at x the degree-k polynomial over GF(q) whose coefficients
/// are the base-q digits of `color` (Horner from the top digit).
Value poly_eval(Value color, std::int64_t k, std::int64_t q, std::int64_t x) {
  Value coeff[65];
  Value c = color;
  for (std::int64_t i = 0; i <= k; ++i) {
    coeff[i] = c % q;
    c /= q;
  }
  Value acc = 0;
  for (std::int64_t i = k; i >= 0; --i) acc = (acc * x + coeff[i]) % q;
  return acc;
}

}  // namespace

Value linial_recolor(Value color, std::span<const Value> others,
                     LinialStep step) {
  const auto [k, q] = step;
  for (Value c : others) {
    DGAP_ASSERT(c != color, "Linial invariant: the coloring stays proper");
  }
  for (std::int64_t x = 0; x < q; ++x) {
    const Value mine = poly_eval(color, k, q, x);
    if (std::none_of(others.begin(), others.end(), [&](Value c) {
          return poly_eval(c, k, q, x) == mine;
        })) {
      return x * q + mine;
    }
  }
  DGAP_ASSERT(false, "q > kΔ guarantees a separating evaluation point");
  return kUndefined;
}

void LinialColoringPhase::ensure_schedule(const NodeContext& ctx) {
  if (scheduled_) return;
  schedule_ = linial_schedule(ctx.d(), ctx.delta(),
                              options_.respect_terminated_outputs,
                              options_.kw_reduction);
  color_ = ctx.delta() == 0 ? 0 : ctx.id() - 1;
  neighbors_ = ctx.neighbors();
  neighbor_color_.assign(neighbors_.size(), kUndefined);
  scheduled_ = true;
}

Value LinialColoringPhase::neighbor_palette_color(NodeId u) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), u);
  if (it == neighbors_.end() || *it != u) return kUndefined;
  const Value c = neighbor_color_[static_cast<std::size_t>(
      it - neighbors_.begin())];
  return c == kUndefined ? kUndefined : c + 1;
}

const std::vector<Value>& LinialColoringPhase::live_colors(
    const NodeContext& ctx) {
  live_.clear();
  std::size_t pos = 0;
  for (NodeId u : ctx.active_neighbors()) {
    pos = neighbor_position(neighbors_, u, pos);
    const Value c = neighbor_color_[pos];
    if (c != kUndefined) live_.push_back(c);
  }
  return live_;
}

void LinialColoringPhase::on_send(NodeContext& ctx, Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return;
  ch.broadcast({color_});
}

PhaseProgram::Status LinialColoringPhase::on_receive(NodeContext& ctx,
                                                     Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return Status::kFinished;
  ++step_;
  std::size_t pos = 0;
  for (const Message* m : ch.inbox()) {
    pos = neighbor_position(neighbors_, m->from, pos);
    neighbor_color_[pos] = m->words.at(0);
  }
  const int num_steps = static_cast<int>(schedule_.steps.size());
  if (step_ <= num_steps) {
    color_ = linial_recolor(
        color_, live_colors(ctx),
        schedule_.steps[static_cast<std::size_t>(step_ - 1)]);
  } else if (step_ <= num_steps + schedule_.reduction_rounds) {
    const LinialReductionStep op = schedule_.reduction(step_ - num_steps - 1);
    const Value delta = ctx.delta();
    // Kuhn–Wattenhofer step (block > 0): the scheduled offset of every
    // block recolors into its block's lower Δ+1 slots, avoiding same-block
    // neighbors only (other blocks occupy disjoint color ranges). Class
    // step: the one scheduled class recolors into {0..Δ}.
    const bool moves = op.block > 0
                           ? color_ % op.block == op.target_or_offset
                           : color_ == op.target_or_offset;
    if (moves) {
      const Value base = op.block > 0 ? (color_ / op.block) * op.block : 0;
      std::vector<bool> used(static_cast<std::size_t>(delta + 1), false);
      for (Value nc : live_colors(ctx)) {
        if (nc >= base && nc <= base + delta) {
          used[static_cast<std::size_t>(nc - base)] = true;
        }
      }
      if (op.block == 0 && options_.respect_terminated_outputs) {
        // Palette colors already output by terminated neighbors (their
        // outputs are 1-based palette colors; internal colors 0-based).
        for (NodeId u : ctx.neighbors()) {
          const Value out = ctx.neighbor_output(u);
          if (out >= 1 && out <= delta + 1) {
            used[static_cast<std::size_t>(out - 1)] = true;
          }
        }
      }
      const auto slot = std::find(used.begin(), used.end(), false);
      DGAP_ASSERT(slot != used.end(), "Δ+1 slots always have a free one");
      color_ = base + (slot - used.begin());
    }
    if (op.relabel) {
      // Stage complete: compact the color space (pure local map, applied
      // by every node simultaneously).
      color_ = (color_ / op.block) * (delta + 1) + color_ % op.block;
    }
  } else {
    // Final announce round already happened via this round's broadcast.
    DGAP_ASSERT(color_ >= 0 && color_ <= ctx.delta(),
                "final Linial color must be in 0..Δ");
    done_ = true;
    return Status::kFinished;
  }
  return Status::kRunning;
}

namespace {

class LinialColoringAlgorithm final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
      ctx.set_output(phase_.palette_color());
      ctx.terminate();
    }
  }

 private:
  LinialColoringPhase phase_;
};

/// Corollary 12's reference: Linial coloring (part 1, fault-tolerant,
/// results held locally) followed by the augmented coloring→MIS sweep
/// (part 2).
class LinialMisPhase final : public PhaseProgram {
 public:
  void on_send(NodeContext& ctx, Channel& ch) override {
    if (part2_) {
      part2_->on_send(ctx, ch);
    } else {
      part1_.on_send(ctx, ch);
    }
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    if (!part2_) {
      if (part1_.on_receive(ctx, ch) == Status::kFinished) {
        part2_ = std::make_unique<ColorToMisPhase>(
            static_cast<Value>(ctx.delta() + 1),
            [this] { return part1_.palette_color(); },
            [this](NodeId u) { return part1_.neighbor_palette_color(u); });
      }
      return Status::kRunning;
    }
    return part2_->on_receive(ctx, ch);
  }

 private:
  LinialColoringPhase part1_;
  std::unique_ptr<ColorToMisPhase> part2_;
};

}  // namespace

ProgramFactory linial_coloring_algorithm() {
  return [](NodeId) { return std::make_unique<LinialColoringAlgorithm>(); };
}

PhaseFactory make_linial_mis_reference() {
  return [](NodeId) { return std::make_unique<LinialMisPhase>(); };
}

int linial_mis_total_rounds(std::int64_t d, int delta) {
  // Part 2 processes colors 1..Δ+1 plus one drain round.
  return linial_total_rounds(d, delta) + delta + 2;
}

}  // namespace dgap
