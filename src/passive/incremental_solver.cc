// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/incremental_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "core/chain_decomposition.h"
#include "core/classifier.h"
#include "core/dominance.h"
#include "core/invariant_audit.h"
#include "graph/flow_audit.h"
#include "obs/obs.h"
#include "passive/contending.h"
#include "passive/sparse_network.h"
#include "util/check.h"

namespace monoclass {

IncrementalPassiveSolver::IncrementalPassiveSolver(
    IncrementalSolveOptions options)
    : options_(options) {}

IncrementalPassiveSolver::IncrementalPassiveSolver(
    const WeightedPointSet& initial, IncrementalSolveOptions options)
    : IncrementalPassiveSolver(options) {
  MC_SPAN("inc/bulk_load");
  records_.reserve(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) {
    CheckPassiveWeight(initial.weight(i));
    points_.Add(initial.point(i));
    records_.push_back(PointRecord{.label = initial.label(i),
                                   .weight = initial.weight(i),
                                   .live = true});
    total_weight_ += initial.weight(i);
  }
  live_count_ = initial.size();
  InitConflictCounts();
  Rebuild();
}

std::vector<size_t> IncrementalPassiveSolver::LiveIds() const {
  std::vector<size_t> ids;
  ids.reserve(live_count_);
  for (size_t id = 0; id < records_.size(); ++id) {
    if (records_[id].live) ids.push_back(id);
  }
  return ids;
}

WeightedPointSet IncrementalPassiveSolver::Snapshot() const {
  WeightedPointSet snapshot;
  for (size_t id = 0; id < records_.size(); ++id) {
    const PointRecord& record = records_[id];
    if (!record.live) continue;
    snapshot.Add(points_[id], record.label, record.weight);
  }
  return snapshot;
}

size_t IncrementalPassiveSolver::NumChains() const {
  size_t count = 0;
  for (const auto& chain : chains_) count += chain.empty() ? 0 : 1;
  return count;
}

size_t IncrementalPassiveSolver::NumRelays() const {
  size_t count = 0;
  for (const auto& chain : chains_) count += chain.size();
  return count;
}

std::vector<size_t> IncrementalPassiveSolver::ConflictPartners(
    size_t id) const {
  const size_t n = records_.size();
  const PointRecord& record = records_[id];
  const Point& point = points_[id];
  // Shards only read; each collects its hits locally, and shard k covers
  // ids entirely below shard k+1's, so concatenation reproduces the
  // serial increasing order at any thread count (the ComputeContending
  // contract).
  const size_t max_shards = std::max<size_t>(
      size_t{1}, std::min<size_t>(options_.parallel.Resolve(), n));
  std::vector<std::vector<size_t>> shard_hits(max_shards);
  ParallelFor(n, options_.parallel,
              [&](size_t begin, size_t end, size_t shard) {
                MC_SPAN("par.inc_conflicts");
                std::vector<size_t>& hits = shard_hits[shard];
                for (size_t j = begin; j < end; ++j) {
                  if (j == id || !records_[j].live) continue;
                  if (LabelsConflict(point, record.label, points_[j],
                                     records_[j].label)) {
                    hits.push_back(j);
                  }
                }
              });
  std::vector<size_t> partners;
  for (const auto& hits : shard_hits) {
    partners.insert(partners.end(), hits.begin(), hits.end());
  }
  return partners;
}

size_t IncrementalPassiveSolver::Insert(const Point& point, Label label,
                                        double weight) {
  MC_SPAN("inc/insert");
  MC_LATENCY("mc.lat.inc_delta");
  MC_CHECK_LE(label, 1);
  CheckPassiveWeight(weight);
  const size_t id = records_.size();
  points_.Add(point);
  records_.push_back(PointRecord{.label = label, .weight = weight,
                                 .live = true});
  ++live_count_;
  total_weight_ += weight;
  if (total_weight_ + 1.0 > infinity_) pending_rebuild_ = true;
  RaiseConflicts(id);
  ++stats_.inserts;
  MC_COUNTER("mc.inc.inserts", 1);
  FinishDelta();
  return id;
}

void IncrementalPassiveSolver::Erase(size_t id) {
  MC_SPAN("inc/erase");
  MC_LATENCY("mc.lat.inc_delta");
  MC_CHECK(IsLive(id));
  DropConflicts(id);
  records_[id].live = false;
  --live_count_;
  total_weight_ -= records_[id].weight;
  ++stats_.erases;
  MC_COUNTER("mc.inc.erases", 1);
  FinishDelta();
}

void IncrementalPassiveSolver::Relabel(size_t id, Label label) {
  MC_CHECK(IsLive(id));
  MC_CHECK_LE(label, 1);
  if (records_[id].label == label) return;
  MC_SPAN("inc/relabel");
  MC_LATENCY("mc.lat.inc_delta");
  // The point leaves as its old self and comes back with the new label.
  DropConflicts(id);
  records_[id].label = label;
  RaiseConflicts(id);
  ++stats_.relabels;
  MC_COUNTER("mc.inc.relabels", 1);
  FinishDelta();
}

void IncrementalPassiveSolver::RaiseConflicts(size_t id) {
  const std::vector<size_t> partners = ConflictPartners(id);
  std::vector<size_t> enters;
  for (const size_t j : partners) {
    if (records_[j].conflicts++ == 0) enters.push_back(j);
  }
  records_[id].conflicts = partners.size();
  if (!partners.empty()) enters.push_back(id);
  std::sort(enters.begin(), enters.end());
  if (!pending_rebuild_) {
    for (const size_t j : enters) EnterContending(j);
  }
}

void IncrementalPassiveSolver::DropConflicts(size_t id) {
  const std::vector<size_t> partners = ConflictPartners(id);
  std::vector<size_t> leaves;
  for (const size_t j : partners) {
    MC_DCHECK_GT(records_[j].conflicts, 0u);
    if (--records_[j].conflicts == 0) leaves.push_back(j);
  }
  if (records_[id].contending) leaves.push_back(id);
  std::sort(leaves.begin(), leaves.end());
  for (const size_t j : leaves) LeaveContending(j);
  records_[id].conflicts = 0;
}

void IncrementalPassiveSolver::EnterContending(size_t id) {
  PointRecord& record = records_[id];
  MC_DCHECK(!record.contending);
  record.contending = true;
  ++num_contending_;
  ++stats_.enter_contending;
  MC_COUNTER("mc.inc.enter_contending", 1);
  if (record.vertex < 0) record.vertex = AddVertex(id);
  if (record.label == 0) {
    record.terminal_edge = AddFiniteEdge(kSource, record.vertex, record.weight);
    for (const std::vector<size_t>& chain : chains_) {
      const size_t t = HighestDominatedPosition(points_, chain, points_[id]);
      if (t != kNoDominatedMember) {
        AddInfiniteEdge(record.vertex, records_[chain[t]].relay);
      }
    }
  } else {
    record.terminal_edge = AddFiniteEdge(record.vertex, kSink, record.weight);
    if (record.relay < 0) record.relay = AddVertex(id);
    InsertChainMember(id);
  }
}

void IncrementalPassiveSolver::LeaveContending(size_t id) {
  PointRecord& record = records_[id];
  MC_DCHECK(record.contending);
  if (record.label == 0) {
    // A label-0 vertex's live out-edges are its wires, one per chain; they
    // come off in chain order.
    std::vector<std::pair<size_t, size_t>> wires;  // (chain, edge index)
    const std::vector<FlowNetwork::Edge>& adjacency =
        network_.adjacency(record.vertex);
    for (size_t e = 0; e < adjacency.size(); ++e) {
      if (adjacency[e].capacity > 0.0) {
        const size_t member =
            vertex_ids_[static_cast<size_t>(adjacency[e].to)];
        wires.emplace_back(records_[member].chain, e);
      }
    }
    std::sort(wires.begin(), wires.end());
    for (const auto& [chain, e] : wires) RemoveEdge(record.vertex, e);
    RemoveEdge(kSource, record.terminal_edge);
  } else {
    RemoveChainMember(id);
    RemoveEdge(record.vertex, record.terminal_edge);
  }
  record.terminal_edge = kNone;
  record.contending = false;
  --num_contending_;
  ++stats_.leave_contending;
  MC_COUNTER("mc.inc.leave_contending", 1);
}

void IncrementalPassiveSolver::InsertChainMember(size_t id) {
  PointRecord& record = records_[id];
  const Point& point = points_[id];
  // First-fit over the existing chains (empty chains accept trivially,
  // so vacated slots are reused before the chain list grows).
  size_t chain = kNone;
  size_t pos = kNone;
  for (size_t c = 0; c < chains_.size(); ++c) {
    const size_t candidate = ChainInsertPosition(points_, chains_[c], point);
    if (candidate != kNoChainPosition) {
      chain = c;
      pos = candidate;
      break;
    }
  }
  if (chain == kNone) {
    chain = chains_.size();
    chains_.emplace_back();
    pos = 0;
  }
  std::vector<size_t>& members = chains_[chain];
  members.insert(members.begin() + static_cast<std::ptrdiff_t>(pos), id);
  for (size_t t = pos; t < members.size(); ++t) {
    records_[members[t]].chain_pos = t;
  }
  record.chain = chain;
  const size_t below = pos > 0 ? members[pos - 1] : kNone;
  const size_t above = pos + 1 < members.size() ? members[pos + 1] : kNone;

  record.feed_edge = AddInfiniteEdge(record.relay, record.vertex);
  record.spine_edge =
      below != kNone ? AddInfiniteEdge(record.relay, records_[below].relay)
                     : kNone;
  if (above != kNone) {
    PointRecord& above_record = records_[above];
    if (above_record.spine_edge != kNone) {
      RemoveEdge(above_record.relay, above_record.spine_edge);
    }
    above_record.spine_edge =
        AddInfiniteEdge(above_record.relay, record.relay);
  }

  // Retarget: exactly the label-0 points whose highest dominated member
  // on this chain was `below` (or none, when the new member is the
  // bottom) and that dominate the new member. A point targeting a lower
  // member cannot dominate the new one (it would dominate `below` by
  // transitivity), and a point targeting a higher member keeps it. The
  // points targeting none have no wire to find, so a bottom insert scans
  // for those that dominate the new member but not the old bottom.
  std::vector<std::pair<size_t, size_t>> moves;  // (id, wire to `below`)
  if (below != kNone) {
    for (const auto& [p, e] : WiresInto(records_[below].relay)) {
      if (DominatesEq(points_[p], point)) moves.emplace_back(p, e);
    }
  } else {
    for (size_t p = 0; p < records_.size(); ++p) {
      const PointRecord& other = records_[p];
      if (other.live && other.contending && other.label == 0 &&
          DominatesEq(points_[p], point) &&
          (above == kNone || !DominatesEq(points_[p], points_[above]))) {
        moves.emplace_back(p, kNone);
      }
    }
  }
  for (const auto& [p, e] : moves) {
    const int vertex = records_[p].vertex;
    if (e != kNone) RemoveEdge(vertex, e);
    AddInfiniteEdge(vertex, record.relay);
    ++stats_.retarget_edges;
    MC_COUNTER("mc.inc.retarget_edges", 1);
  }
}

void IncrementalPassiveSolver::RemoveChainMember(size_t id) {
  PointRecord& record = records_[id];
  const size_t chain = record.chain;
  std::vector<size_t>& members = chains_[chain];
  const size_t pos = record.chain_pos;
  MC_DCHECK_LT(pos, members.size());
  MC_DCHECK_EQ(members[pos], id);
  const size_t below = pos > 0 ? members[pos - 1] : kNone;
  const size_t above = pos + 1 < members.size() ? members[pos + 1] : kNone;

  // Label-0 edges aimed at the departing member drop to `below` (their
  // next-highest dominated member, by transitivity) or to nothing.
  for (const auto& [p, e] : WiresInto(record.relay)) {
    const int vertex = records_[p].vertex;
    RemoveEdge(vertex, e);
    if (below != kNone) {
      AddInfiniteEdge(vertex, records_[below].relay);
      ++stats_.retarget_edges;
      MC_COUNTER("mc.inc.retarget_edges", 1);
    }
  }

  // Splice the relay spine around the hole.
  if (above != kNone) {
    PointRecord& above_record = records_[above];
    RemoveEdge(above_record.relay, above_record.spine_edge);
    above_record.spine_edge =
        below != kNone
            ? AddInfiniteEdge(above_record.relay, records_[below].relay)
            : kNone;
  }
  if (record.spine_edge != kNone) {
    RemoveEdge(record.relay, record.spine_edge);
    record.spine_edge = kNone;
  }
  RemoveEdge(record.relay, record.feed_edge);
  record.feed_edge = kNone;

  members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
  for (size_t t = pos; t < members.size(); ++t) {
    records_[members[t]].chain_pos = t;
  }
  record.chain = kNone;
  record.chain_pos = kNone;
}

std::vector<std::pair<size_t, size_t>> IncrementalPassiveSolver::WiresInto(
    int relay) const {
  std::vector<std::pair<size_t, size_t>> wires;
  for (const FlowNetwork::Edge& in : network_.adjacency(relay)) {
    // A live in-edge is the twin of an edge that still has capacity; the
    // relay above's spine edge is one too, but its tail is no point's
    // vertex.
    const size_t id = vertex_ids_[static_cast<size_t>(in.to)];
    if (records_[id].vertex == in.to &&
        network_.adjacency(in.to)[in.rev].capacity > 0.0) {
      wires.emplace_back(id, in.rev);
    }
  }
  std::sort(wires.begin(), wires.end());
  return wires;
}

int IncrementalPassiveSolver::AddVertex(size_t id) {
  vertex_ids_.push_back(id);
  return network_.AddVertex();
}

size_t IncrementalPassiveSolver::AddFiniteEdge(int u, int v, double capacity) {
  ++active_finite_edges_;
  network_dirty_ = true;
  const size_t edge = network_.AddEdge(u, v, capacity);
  NoteRaised(u, edge);
  return edge;
}

size_t IncrementalPassiveSolver::AddInfiniteEdge(int u, int v) {
  ++active_infinite_edges_;
  network_dirty_ = true;
  const size_t edge = network_.AddEdge(u, v, infinity_);
  NoteRaised(u, edge);
  return edge;
}

void IncrementalPassiveSolver::NoteRaised(int u, size_t edge_index) {
  if (InCertificate(u) &&
      !InCertificate(network_.adjacency(u)[edge_index].to)) {
    raised_.emplace_back(u, edge_index);
  }
}

void IncrementalPassiveSolver::RemoveEdge(int u, size_t edge_index) {
  DrainEdge(u, edge_index);
  const bool infinite =
      network_.adjacency(u)[edge_index].capacity >= infinity_;
  network_.DeactivateEdge(u, edge_index);
  dead_edge_entries_ += 2;  // the edge and its reverse twin
  if (infinite) {
    --active_infinite_edges_;
  } else {
    --active_finite_edges_;
  }
  network_dirty_ = true;
  ++stats_.deactivated_edges;
  MC_COUNTER("mc.inc.deactivated_edges", 1);
}

void IncrementalPassiveSolver::DrainEdge(int u, size_t edge_index) {
  FlowNetwork::Edge& edge = network_.adjacency(u)[edge_index];
  while (FlowNetwork::FlowOn(edge) > kFlowEps) {
    // One full flow-carrying path source ~> u -> edge.to ~> sink through
    // the edge, as (tail vertex, edge index) pairs of forward edges. The
    // backward leg follows in-flow (reverse twins with positive
    // residual); conservation guarantees it reaches the source, and the
    // network is a DAG (source -> label-0 -> relays downward -> label-1
    // -> sink), so both walks terminate.
    std::vector<std::pair<int, size_t>> path;
    int x = u;
    while (x != kSource) {
      bool found = false;
      const auto& adjacency = network_.adjacency(x);
      for (size_t e = 0; e < adjacency.size(); ++e) {
        const FlowNetwork::Edge& twin = adjacency[e];
        if (twin.capacity > 0.0) continue;      // forward edges carry out-flow
        if (twin.residual <= kFlowEps) continue;  // no in-flow here
        path.emplace_back(twin.to, twin.rev);
        x = twin.to;
        found = true;
        break;
      }
      MC_CHECK(found) << "flow drain: vertex " << x
                      << " has in-flow but no path back to the source";
    }
    std::reverse(path.begin(), path.end());
    path.emplace_back(u, edge_index);
    int y = edge.to;
    while (y != kSink) {
      bool found = false;
      const auto& adjacency = network_.adjacency(y);
      for (size_t e = 0; e < adjacency.size(); ++e) {
        const FlowNetwork::Edge& out = adjacency[e];
        if (out.capacity <= 0.0) continue;
        if (FlowNetwork::FlowOn(out) <= kFlowEps) continue;
        path.emplace_back(y, e);
        y = out.to;
        found = true;
        break;
      }
      MC_CHECK(found) << "flow drain: vertex " << y
                      << " has out-flow but no path on to the sink";
    }
    double amount = std::numeric_limits<double>::infinity();
    for (const auto& [v, e] : path) {
      amount = std::min(amount, FlowNetwork::FlowOn(network_.adjacency(v)[e]));
    }
    MC_DCHECK_GT(amount, 0.0);
    for (const auto& [v, e] : path) {
      FlowNetwork::Edge& forward = network_.adjacency(v)[e];
      forward.residual += amount;
      FlowNetwork::Edge& twin =
          network_.adjacency(forward.to)[forward.rev];
      twin.residual -= amount;
      if (twin.residual < 0.0) twin.residual = 0.0;  // float dust
      NoteRaised(v, e);
    }
    flow_value_ -= amount;
    ++stats_.drained_paths;
    MC_COUNTER("mc.inc.drain_paths", 1);
  }
}

bool IncrementalPassiveSolver::NeedsRebuild() const {
  if (pending_rebuild_) return true;
  return dead_edge_entries_ >= kCompactMinDeadEdges &&
         static_cast<double>(dead_edge_entries_) >
             kCompactDeadEdgeRatio *
                 static_cast<double>(network_.NumStoredEdges());
}

void IncrementalPassiveSolver::FinishDelta() {
  ++stats_.deltas;
  MC_COUNTER("mc.inc.deltas", 1);
  result_dirty_ = true;
  if (NeedsRebuild()) {
    Rebuild();
    return;
  }
  if (network_dirty_) {
    MC_SPAN("inc/augment");
    MC_LATENCY("mc.lat.inc_augment");
    // A closed certificate proves the flow maximum, and Dinic would find
    // no level graph reaching the sink: skipping it changes nothing.
    if (GrowCertificate()) {
      flow_value_ += dinic_.Solve(network_, kSource, kSink);
      TakeCertificate();
      ++stats_.maxflow_runs;
      MC_COUNTER("mc.inc.maxflow_runs", 1);
    }
    network_dirty_ = false;
    ++stats_.augment_calls;
    MC_COUNTER("mc.inc.augment_calls", 1);
    MC_AUDIT(AuditFlowConservation(network_, kSource, kSink, flow_value_,
                                   {.infinity_threshold = infinity_}));
    MC_AUDIT(AuditCertificate());
  }
}

bool IncrementalPassiveSolver::GrowCertificate() {
  certificate_.resize(static_cast<size_t>(network_.NumVertices()), 0);
  // Marks `v` and stacks it for a scan; true when `v` is the sink.
  const auto add = [this](int v) {
    certificate_[static_cast<size_t>(v)] = 1;
    growth_stack_.push_back(v);
    return v == kSink;
  };
  bool reached_sink = false;
  uint64_t visits = 0;
  for (const auto& [u, e] : raised_) {
    if (reached_sink) break;
    const FlowNetwork::Edge& edge = network_.adjacency(u)[e];
    if (edge.residual <= kFlowEps ||
        certificate_[static_cast<size_t>(edge.to)] != 0) {
      continue;
    }
    reached_sink = add(edge.to);
    while (!reached_sink && !growth_stack_.empty()) {
      const int x = growth_stack_.back();
      growth_stack_.pop_back();
      ++visits;
      for (const FlowNetwork::Edge& out : network_.adjacency(x)) {
        if (out.residual > kFlowEps &&
            certificate_[static_cast<size_t>(out.to)] == 0 &&
            add(out.to)) {
          reached_sink = true;
          break;
        }
      }
    }
  }
  growth_stack_.clear();
  raised_.clear();
  stats_.certificate_visits += visits;
  MC_COUNTER("mc.inc.certificate_visits", visits);
  return reached_sink;
}

void IncrementalPassiveSolver::TakeCertificate() {
  const size_t n = static_cast<size_t>(network_.NumVertices());
  certificate_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    certificate_[v] = dinic_.Reached(static_cast<int>(v)) ? 1 : 0;
  }
}

AuditResult IncrementalPassiveSolver::AuditCertificate() const {
  if (!InCertificate(kSource)) {
    return AuditResult::Fail("max-flow certificate does not hold the source");
  }
  if (InCertificate(kSink)) {
    return AuditResult::Fail("max-flow certificate holds the sink");
  }
  for (int u = 0; u < network_.NumVertices(); ++u) {
    if (!InCertificate(u)) continue;
    const std::vector<FlowNetwork::Edge>& adjacency = network_.adjacency(u);
    for (size_t e = 0; e < adjacency.size(); ++e) {
      if (adjacency[e].residual > kFlowEps &&
          !InCertificate(adjacency[e].to)) {
        std::ostringstream why;
        why << "max-flow certificate is open: edge " << e << " of vertex "
            << u << " leaves it towards " << adjacency[e].to
            << " with residual " << adjacency[e].residual;
        return AuditResult::Fail(why.str());
      }
    }
  }
  return AuditResult::Ok();
}

void IncrementalPassiveSolver::InitConflictCounts() {
  const size_t n = records_.size();
  if (points_.dimension() == 2) {
    // A sweep in (x, y) order that counts conflicts: a Fenwick
    // tree over y ranks holds the points folded so far, so a label-0
    // point's count is the folded label-1 points at y' <= y (ascending
    // x), and a label-1 point's count is the folded label-0 points at
    // y' >= y (descending x). Ranks compare by value (-0.0 ties 0.0).
    const std::vector<Point>& p = points_.points();
    std::vector<size_t> order = LexicographicOrder2D(p);
    std::erase_if(order, [&](size_t id) { return !records_[id].live; });
    std::vector<double> ys;
    ys.reserve(order.size());
    for (const size_t id : order) ys.push_back(p[id][1]);
    std::sort(ys.begin(), ys.end());
    ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
    const size_t m = ys.size();
    const auto rank = [&](size_t id) {
      return static_cast<size_t>(
          std::lower_bound(ys.begin(), ys.end(), p[id][1]) - ys.begin());
    };
    // tree[r] (1-based) counts folded ranks in (r - lowbit(r), r].
    std::vector<size_t> tree(m + 1, 0);
    const auto add = [&](size_t r) {
      for (++r; r <= m; r += r & (~r + 1)) ++tree[r];
    };
    const auto count_at_most = [&](size_t r) {
      size_t count = 0;
      for (++r; r > 0; r -= r & (~r + 1)) count += tree[r];
      return count;
    };
    ForEachEqualXRun(p, order, /*descending=*/false, [&](size_t begin,
                                                         size_t end) {
      for (size_t k = begin; k < end; ++k) {
        if (records_[order[k]].label == 1) add(rank(order[k]));
      }
      for (size_t k = begin; k < end; ++k) {
        PointRecord& record = records_[order[k]];
        if (record.label == 0) record.conflicts = count_at_most(rank(order[k]));
      }
    });
    // Reversed ranks turn "y' >= y" into a prefix count.
    std::fill(tree.begin(), tree.end(), size_t{0});
    ForEachEqualXRun(p, order, /*descending=*/true, [&](size_t begin,
                                                        size_t end) {
      for (size_t k = begin; k < end; ++k) {
        if (records_[order[k]].label == 0) add(m - 1 - rank(order[k]));
      }
      for (size_t k = begin; k < end; ++k) {
        PointRecord& record = records_[order[k]];
        if (record.label == 1) {
          record.conflicts = count_at_most(m - 1 - rank(order[k]));
        }
      }
    });
    MC_COUNTER("mc.dom.sweep_points", order.size());
    return;
  }

  // Row i's count depends only on row i: shards write disjoint records
  // and their own count of tested pairs.
  const size_t max_shards = std::max<size_t>(
      size_t{1}, std::min<size_t>(options_.parallel.Resolve(), n));
  std::vector<uint64_t> shard_pairs(max_shards, 0);
  ParallelFor(n, options_.parallel, [&](size_t begin, size_t end,
                                        size_t shard) {
    MC_SPAN("par.inc_conflict_init");
    uint64_t pairs = 0;
    for (size_t i = begin; i < end; ++i) {
      if (!records_[i].live) continue;
      size_t count = 0;
      for (size_t j = 0; j < n; ++j) {
        if (i == j || !records_[j].live) continue;
        ++pairs;
        if (LabelsConflict(points_[i], records_[i].label, points_[j],
                           records_[j].label)) {
          ++count;
        }
      }
      records_[i].conflicts = count;
    }
    shard_pairs[shard] = pairs;
  });
  uint64_t pairs = 0;
  for (const uint64_t shard : shard_pairs) pairs += shard;
  MC_COUNTER("mc.dom.scan_pairs", pairs);
}

AuditResult IncrementalPassiveSolver::AuditConflictCounts() const {
  const size_t n = records_.size();
  for (size_t i = 0; i < n; ++i) {
    if (!records_[i].live) continue;
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
      if (i == j || !records_[j].live) continue;
      if (LabelsConflict(points_[i], records_[i].label, points_[j],
                         records_[j].label)) {
        ++count;
      }
    }
    if (count != records_[i].conflicts) {
      std::ostringstream why;
      why << "conflict count drifted at id " << i << ": maintained "
          << records_[i].conflicts << ", recounted " << count;
      return AuditResult::Fail(why.str());
    }
  }
  return AuditResult::Ok();
}

void IncrementalPassiveSolver::Rebuild() {
  MC_SPAN("inc/rebuild");
  ++stats_.rebuilds;
  MC_COUNTER("mc.inc.rebuilds", 1);
  MC_AUDIT(AuditConflictCounts());
  pending_rebuild_ = false;
  raised_.clear();
  dead_edge_entries_ = 0;
  infinity_ = std::max(1.0, 2.0 * total_weight_ + 1.0);
  for (PointRecord& record : records_) {
    record = PointRecord{.label = record.label, .weight = record.weight,
                         .live = record.live, .conflicts = record.conflicts};
  }

  // Contending membership is conflicts > 0 (maintained incrementally and
  // just audited against the batch ComputeContending definition above).
  // The contending points, ascending, are the builder's whole set: its
  // k-th point is ids[k].
  std::vector<size_t> ids;
  WeightedPointSet contending;
  for (size_t id = 0; id < records_.size(); ++id) {
    const PointRecord& record = records_[id];
    if (!record.live || record.conflicts == 0) continue;
    ids.push_back(id);
    contending.Add(points_[id], record.label, record.weight);
  }
  std::vector<size_t> active(ids.size());
  std::iota(active.begin(), active.end(), size_t{0});
  SparseNetworkPlan plan = BuildSparseChainRelayNetwork(
      contending, active, infinity_, options_.parallel);
  network_ = std::move(plan.network);
  num_contending_ = ids.size();
  active_finite_edges_ = plan.finite_edges;
  active_infinite_edges_ = plan.infinite_edges;

  // Vertex and edge handles, read from the plan's layout.
  vertex_ids_.assign(static_cast<size_t>(network_.NumVertices()), kNone);
  size_t source_edge = 0;
  for (size_t k = 0; k < ids.size(); ++k) {
    PointRecord& record = records_[ids[k]];
    record.contending = true;
    record.vertex = static_cast<int>(k) + 2;
    record.terminal_edge = record.label == 0 ? source_edge++ : 0;
    vertex_ids_[k + 2] = ids[k];
  }
  chains_ = std::move(plan.chains);
  int relay = plan.relay_begin;
  for (size_t c = 0; c < chains_.size(); ++c) {
    for (size_t t = 0; t < chains_[c].size(); ++t, ++relay) {
      const size_t id = ids[chains_[c][t]];
      chains_[c][t] = id;
      PointRecord& record = records_[id];
      record.chain = c;
      record.chain_pos = t;
      record.relay = relay;
      record.feed_edge = 0;
      record.spine_edge = t > 0 ? 1 : kNone;
      vertex_ids_[static_cast<size_t>(relay)] = id;
    }
  }

  {
    MC_SPAN("inc/rebuild_solve");
    flow_value_ = dinic_.Solve(network_, kSource, kSink);
    TakeCertificate();
  }
  network_dirty_ = false;
  result_dirty_ = true;
  MC_AUDIT(AuditFlowConservation(network_, kSource, kSink, flow_value_,
                                 {.infinity_threshold = infinity_}));
  MC_AUDIT(AuditCertificate());
}

const PassiveSolveResult& IncrementalPassiveSolver::Solve() {
  if (!result_dirty_ && result_.has_value()) return *result_;
  MC_SPAN("inc/extract");
  // dimension() is 0 until the first point ever arrives; the classifier
  // type requires >= 1, and AlwaysZero answers 0 in any dimension.
  PassiveSolveResult result{.classifier = MonotoneClassifier::AlwaysZero(
                                std::max<size_t>(1, points_.dimension()))};
  result.used_sparse_network = true;
  result.num_contending = num_contending_;
  result.network_vertices = static_cast<size_t>(network_.NumVertices());
  result.network_finite_edges = active_finite_edges_;
  result.network_infinite_edges = active_infinite_edges_;
  result.network_relays = NumRelays();
  result.network_chains = NumChains();
  result.flow_value = flow_value_;
  if (live_count_ == 0) {
    result.assignment.clear();
    result.optimal_weighted_error = 0.0;
    result_ = std::move(result);
    result_dirty_ = false;
    return *result_;
  }
  const std::vector<bool> reachable = ResidualReachable(network_, kSource);
  result.assignment.reserve(live_count_);
  for (size_t id = 0; id < records_.size(); ++id) {
    const PointRecord& record = records_[id];
    if (!record.live) continue;
    if (!record.contending) {
      // Non-contending points keep their own labels (Lemma 15's h').
      result.assignment.push_back(record.label);
    } else {
      // h*_cut(p) = 1 iff p's vertex is NOT residual-reachable -- the
      // same rule, against the same unique minimal min-cut source side,
      // as the cold solver's step 4.
      const bool positive =
          !reachable[static_cast<size_t>(record.vertex)];
      result.assignment.push_back(positive ? 1 : 0);
    }
  }
  FinalizePassiveResult(Snapshot(), result);
  result_ = std::move(result);
  result_dirty_ = false;
  return *result_;
}

AuditResult IncrementalPassiveSolver::AuditIncrementalCut() {
  MC_SPAN("inc/audit");
  ++stats_.audits;
  MC_COUNTER("mc.inc.audits", 1);
  const PassiveSolveResult& warm = Solve();
  if (live_count_ == 0) {
    if (std::abs(flow_value_) > 1e-6) {
      return AuditResult::Fail("empty snapshot still carries flow");
    }
    return AuditResult::Ok();
  }

  // (1) The repaired flow is a genuine maximum flow and its residual cut
  // a genuine minimum cut of the patched network (Lemmas 7/8/18), with
  // relay purity over the interleaved relay layout; and the certificate
  // the next repair starts from is closed.
  std::vector<bool> relays(static_cast<size_t>(network_.NumVertices()),
                           false);
  for (const PointRecord& record : records_) {
    if (record.live && record.contending && record.label == 1) {
      relays[static_cast<size_t>(record.relay)] = true;
    }
  }
  FlowAuditOptions cut_options;
  cut_options.infinity_threshold = infinity_;
  cut_options.relay_vertices = &relays;
  const AuditResult cut =
      AuditMinCut(network_, kSource, kSink, flow_value_, cut_options);
  if (!cut.ok) return cut;
  const AuditResult certificate = AuditCertificate();
  if (!certificate.ok) return certificate;

  // (2) The warm result is bit-identical to a cold solve on the same
  // snapshot: same assignment, same weighted error, same classifier on
  // the snapshot's points. Only the raw flow value gets a float
  // tolerance (it is a running sum on the warm side).
  const WeightedPointSet snapshot = Snapshot();
  const PassiveSolveResult cold = SolvePassiveWeighted(snapshot);
  if (cold.assignment != warm.assignment) {
    for (size_t k = 0; k < cold.assignment.size(); ++k) {
      if (cold.assignment[k] != warm.assignment[k]) {
        std::ostringstream why;
        why << "incremental cut diverged from cold solve at snapshot row "
            << k << ": warm " << static_cast<int>(warm.assignment[k])
            << ", cold " << static_cast<int>(cold.assignment[k]);
        return AuditResult::Fail(why.str());
      }
    }
    return AuditResult::Fail(
        "incremental assignment length diverged from cold solve");
  }
  if (cold.optimal_weighted_error != warm.optimal_weighted_error) {
    std::ostringstream why;
    why << "incremental optimum " << warm.optimal_weighted_error
        << " != cold optimum " << cold.optimal_weighted_error;
    return AuditResult::Fail(why.str());
  }
  if (!EquivalentOn(cold.classifier, warm.classifier, snapshot.points())) {
    return AuditResult::Fail(
        "incremental classifier disagrees with the cold classifier on the "
        "snapshot");
  }
  if (std::abs(cold.flow_value - flow_value_) >
      1e-6 * std::max(1.0, std::abs(cold.flow_value))) {
    std::ostringstream why;
    why << "repaired flow value " << flow_value_
        << " drifted from cold flow value " << cold.flow_value;
    return AuditResult::Fail(why.str());
  }
  return AuditResult::Ok();
}

}  // namespace monoclass
