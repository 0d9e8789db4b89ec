// Linial's deterministic color reduction, via polynomial set systems.
//
// This is part 1 of Corollary 12's reference algorithm (substituted for the
// Barenboim–Elkin O(Δ + log* d) coloring — see DESIGN.md §2). Starting from
// the identifiers as an initial d-coloring, each Linial iteration maps an
// m-coloring to a q²-coloring in one round, where q is the smallest prime
// with q > kΔ and q^{k+1} >= m: a color c is read as the base-q digit
// vector of a degree-k polynomial p_c over GF(q); two distinct polynomials
// agree on at most k points, so among the q > kΔ evaluation points some x
// has p_v(x) != p_u(x) for every neighbor u, and (x, p_v(x)) is the new
// color. After O(log* d) iterations the palette stabilizes at
// q₁² ∈ O(Δ²) colors with q₁ the smallest prime > Δ; a final stage then
// recolors one color class per round down to Δ+1 colors.
//
// The whole schedule is a pure function of (d, Δ), so every node computes
// the same round budget — exactly what the Consecutive and Parallel
// templates need. It is O(log* d) words: the Linial steps plus the few
// numbers every reduction round follows from. The O(Δ²) reduction rounds
// are never stored; LinialSchedule::reduction(i) derives round i in O(1).
// The algorithm is fault-tolerant in the sense of Section 7.4: every step
// only compares against *live* neighbors, so if nodes vanish mid-run the
// surviving partial coloring stays proper.
//
// LinialColoringPhase does not write node outputs: the final color is held
// in local state (own_color / neighbor color accessors), because in the
// Parallel template part 1 must stash results locally. Its per-node state
// is O(deg): one neighbor color per adjacency position.
#pragma once

#include <span>
#include <vector>

#include "sim/phase.hpp"

namespace dgap {

struct LinialStep {
  std::int64_t k;  // polynomial degree
  std::int64_t q;  // field size (prime, q > kΔ)
};

/// One round of the color-reduction stage.
///
/// Kuhn–Wattenhofer step (block > 0): colors are partitioned into blocks
/// of `block` = 2(Δ+1) consecutive values; every node whose color offset
/// within its block equals `target_or_offset` recolors into the lower
/// Δ+1 slots of its block, avoiding same-block neighbors (neighbors in
/// other blocks cannot collide). All blocks work in parallel, which is
/// what turns the O(Δ²) one-class-per-round reduction into O(Δ log Δ).
/// When `relabel` is set, every node afterwards compacts its color with
/// c → (c / block)·(Δ+1) + (c mod block) — a pure local map.
///
/// Class step (block == 0): the single class `target_or_offset` recolors
/// into {0..Δ} avoiding all neighbors (the Linial classic).
struct LinialReductionStep {
  Value block = 0;
  Value target_or_offset = 0;
  bool relabel = false;
};

/// The reduction stage is kw_stages Kuhn–Wattenhofer stages of Δ+1 rounds
/// each (round t of a stage handles block offset Δ+1+t and the last one
/// relabels), then one class per round from class_top downwards until
/// reduction_rounds are used up.
struct LinialSchedule {
  std::vector<LinialStep> steps;  // one round each; O(log* d) entries
  std::int64_t final_colors = 1;  // palette size after the steps
  int delta = 0;
  int kw_stages = 0;        // Kuhn–Wattenhofer stages before the class tail
  Value class_top = 0;      // first class of the class-by-class tail
  int reduction_rounds = 0;
  int total_rounds = 1;     // steps + reduction + 1

  /// Reduction round i, 0 <= i < reduction_rounds, derived in O(1).
  LinialReductionStep reduction(int i) const;
};

/// Deterministic schedule for identifiers in {1..d} and max degree Δ.
/// With `reduce_all_classes`, the final stage re-examines EVERY color
/// class (reduction_rounds = final_colors): needed when the phase must
/// also avoid colors already output by terminated neighbors — a class
/// that happens to land inside the palette may still clash with them.
/// With `kw_reduction`, Kuhn–Wattenhofer parallel block reduction brings
/// the palette from O(Δ²) to 2(Δ+1) in O(Δ log Δ) rounds before the
/// class-by-class tail — asymptotically closer to the Barenboim–Elkin
/// O(Δ + log* d) bound the paper's Corollary 12 cites. Mutually
/// exclusive with reduce_all_classes. Throws std::invalid_argument if the
/// round count does not fit an int.
LinialSchedule linial_schedule(std::int64_t d, int delta,
                               bool reduce_all_classes = false,
                               bool kw_reduction = false);

/// Round bound of the full (Δ+1)-coloring part (for template schedules).
int linial_total_rounds(std::int64_t d, int delta);

/// Round bound of the output-respecting variant (reduce_all_classes).
int linial_total_rounds_respecting(std::int64_t d, int delta);

/// Round bound of the Kuhn–Wattenhofer variant (O(Δ log Δ + log* d)).
int linial_total_rounds_kw(std::int64_t d, int delta);

struct LinialOptions {
  /// When true, the final color additionally avoids every color already
  /// output by a terminated neighbor, so the phase extends a proper
  /// partial coloring (what the Consecutive template for (Δ+1)-Vertex
  /// Coloring needs). Implies reduce_all_classes scheduling.
  bool respect_terminated_outputs = false;
  /// Use the Kuhn–Wattenhofer parallel block reduction (see
  /// linial_schedule). Incompatible with respect_terminated_outputs.
  bool kw_reduction = false;
};

/// The coloring phase. Colors are internal values 0..Δ during/after the
/// run; palette_color() = final color + 1 ∈ {1..Δ+1}.
class LinialColoringPhase final : public PhaseProgram {
 public:
  LinialColoringPhase() = default;
  explicit LinialColoringPhase(LinialOptions options) : options_(options) {}

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

  bool done() const { return done_; }
  /// Final color in {1..Δ+1}; only meaningful once done().
  Value palette_color() const { return color_ + 1; }
  /// Last color heard from neighbor u (+1), or kUndefined if never heard.
  Value neighbor_palette_color(NodeId u) const;

 private:
  void ensure_schedule(const NodeContext& ctx);
  /// Colors last heard from the live neighbors, in adjacency order.
  const std::vector<Value>& live_colors(const NodeContext& ctx);

  LinialOptions options_;
  bool scheduled_ = false;
  LinialSchedule schedule_;
  int step_ = 0;
  bool done_ = false;
  Value color_ = 0;
  std::span<const NodeId> neighbors_;  // the graph's adjacency of this node
  // Last color heard from each neighbor, by position in neighbors_;
  // kUndefined if never heard.
  std::vector<Value> neighbor_color_;
  std::vector<Value> live_;  // live_colors() buffer, reused every round
};

/// One Linial step: the new color (x, p_color(x)) of a node colored
/// `color` whose live neighbors hold `others`, for the smallest x ∈ GF(q)
/// at which p_color differs from every p_other.
Value linial_recolor(Value color, std::span<const Value> others,
                     LinialStep step);

/// Complete (Δ+1)-coloring algorithm: run the phase, then every node
/// outputs its palette color and terminates (one extra round).
ProgramFactory linial_coloring_algorithm();

/// Corollary 12's full reference for MIS: Linial part 1 feeding the
/// augmented coloring→MIS part 2. Usable standalone (Simple/Consecutive
/// templates) — the Parallel template wires the two parts itself.
PhaseFactory make_linial_mis_reference();

/// Round bound of the full Linial-MIS reference (part 1 + part 2).
int linial_mis_total_rounds(std::int64_t d, int delta);

}  // namespace dgap
