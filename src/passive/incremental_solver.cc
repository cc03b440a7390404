// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/incremental_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
    : options_(options), solver_(CreateMaxFlowSolver(options_.algorithm)) {}

IncrementalPassiveSolver::IncrementalPassiveSolver(
    const WeightedPointSet& initial, IncrementalSolveOptions options)
    : IncrementalPassiveSolver(options) {
  MC_SPAN("inc/bulk_load");
  records_.reserve(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) {
    MC_CHECK_GT(initial.weight(i), 0.0);
    points_.Add(initial.point(i));
    PointRecord record;
    record.label = initial.label(i);
    record.weight = initial.weight(i);
    record.live = true;
    records_.push_back(std::move(record));
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
  MC_CHECK_GT(weight, 0.0);
  const size_t id = records_.size();
  points_.Add(point);
  PointRecord record;
  record.label = label;
  record.weight = weight;
  record.live = true;
  records_.push_back(std::move(record));
  ++live_count_;
  total_weight_ += weight;
  if (total_weight_ + 1.0 > infinity_) pending_rebuild_ = true;

  const std::vector<size_t> partners = ConflictPartners(id);
  std::vector<size_t> enters;
  for (const size_t j : partners) {
    if (records_[j].conflicts++ == 0) enters.push_back(j);
  }
  records_[id].conflicts = partners.size();
  if (!partners.empty()) enters.push_back(id);  // id is the largest, so
                                                // `enters` stays ascending
  if (!pending_rebuild_) {
    for (const size_t j : enters) EnterContending(j);
  }
  ++stats_.inserts;
  MC_COUNTER("mc.inc.inserts", 1);
  FinishDelta();
  return id;
}

void IncrementalPassiveSolver::Erase(size_t id) {
  MC_SPAN("inc/erase");
  MC_LATENCY("mc.lat.inc_delta");
  MC_CHECK(IsLive(id));
  const std::vector<size_t> partners = ConflictPartners(id);
  std::vector<size_t> leaves;
  for (const size_t j : partners) {
    MC_DCHECK_GT(records_[j].conflicts, 0u);
    if (--records_[j].conflicts == 0) leaves.push_back(j);
  }
  if (records_[id].contending) leaves.push_back(id);
  std::sort(leaves.begin(), leaves.end());
  for (const size_t j : leaves) LeaveContending(j);
  records_[id].live = false;
  records_[id].conflicts = 0;
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
  // Tear down the old-label conflicts first (the point leaves as its old
  // self), flip the label, then bring up the new-label conflicts.
  {
    const std::vector<size_t> partners = ConflictPartners(id);
    std::vector<size_t> leaves;
    for (const size_t j : partners) {
      MC_DCHECK_GT(records_[j].conflicts, 0u);
      if (--records_[j].conflicts == 0) leaves.push_back(j);
    }
    if (records_[id].contending) leaves.push_back(id);
    std::sort(leaves.begin(), leaves.end());
    for (const size_t j : leaves) LeaveContending(j);
  }
  records_[id].label = label;
  records_[id].conflicts = 0;
  {
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
  ++stats_.relabels;
  MC_COUNTER("mc.inc.relabels", 1);
  FinishDelta();
}

void IncrementalPassiveSolver::EnterContending(size_t id) {
  PointRecord& record = records_[id];
  MC_DCHECK(!record.contending);
  record.contending = true;
  ++num_contending_;
  ++stats_.enter_contending;
  MC_COUNTER("mc.inc.enter_contending", 1);
  if (record.vertex < 0) record.vertex = network_.AddVertex();
  if (record.label == 0) {
    record.terminal_edge = AddFiniteEdge(kSource, record.vertex, record.weight);
    record.wiring.assign(chains_.size(), WireSlot{});
    const Point& point = points_[id];
    for (size_t c = 0; c < chains_.size(); ++c) {
      if (chains_[c].empty()) continue;
      const size_t t = HighestDominatedPosition(points_, chains_[c], point);
      if (t == kNoDominatedMember) continue;
      const size_t target = chains_[c][t];
      record.wiring[c] = WireSlot{
          target, AddInfiniteEdge(record.vertex, records_[target].relay)};
    }
  } else {
    record.terminal_edge = AddFiniteEdge(record.vertex, kSink, record.weight);
    if (record.relay < 0) record.relay = network_.AddVertex();
    InsertChainMember(id);
  }
}

void IncrementalPassiveSolver::LeaveContending(size_t id) {
  PointRecord& record = records_[id];
  MC_DCHECK(record.contending);
  if (record.label == 0) {
    for (WireSlot& slot : record.wiring) {
      if (slot.edge != kNone) RemoveEdge(record.vertex, slot.edge);
    }
    record.wiring.clear();
    record.wiring.shrink_to_fit();
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
    // Every wired label-0 point gains an empty slot for the new chain.
    for (PointRecord& other : records_) {
      if (other.live && other.contending && other.label == 0) {
        other.wiring.emplace_back();
      }
    }
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
  // transitivity), and a point targeting a higher member keeps it.
  for (size_t p = 0; p < records_.size(); ++p) {
    PointRecord& other = records_[p];
    if (!other.live || !other.contending || other.label != 0) continue;
    WireSlot& slot = other.wiring[chain];
    if (slot.target != below) continue;
    if (!DominatesEq(points_[p], point)) continue;
    if (slot.edge != kNone) RemoveEdge(other.vertex, slot.edge);
    slot = WireSlot{id, AddInfiniteEdge(other.vertex, record.relay)};
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
  for (size_t p = 0; p < records_.size(); ++p) {
    PointRecord& other = records_[p];
    if (!other.live || !other.contending || other.label != 0) continue;
    WireSlot& slot = other.wiring[chain];
    if (slot.target != id) continue;
    RemoveEdge(other.vertex, slot.edge);
    if (below != kNone) {
      slot = WireSlot{below, AddInfiniteEdge(other.vertex,
                                             records_[below].relay)};
      ++stats_.retarget_edges;
      MC_COUNTER("mc.inc.retarget_edges", 1);
    } else {
      slot = WireSlot{};
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

size_t IncrementalPassiveSolver::AddFiniteEdge(int u, int v, double capacity) {
  ++active_finite_edges_;
  network_dirty_ = true;
  return network_.AddEdge(u, v, capacity);
}

size_t IncrementalPassiveSolver::AddInfiniteEdge(int u, int v) {
  ++active_infinite_edges_;
  network_dirty_ = true;
  return network_.AddEdge(u, v, infinity_);
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
    }
    flow_value_ -= amount;
    ++stats_.drained_paths;
    MC_COUNTER("mc.inc.drain_paths", 1);
  }
}

bool IncrementalPassiveSolver::NeedsRebuild() const {
  if (pending_rebuild_) return true;
  return dead_edge_entries_ >= options_.compact_min_dead_edges &&
         static_cast<double>(dead_edge_entries_) >
             options_.compact_dead_edge_ratio *
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
    flow_value_ += solver_->Augment(network_, kSource, kSink);
    network_dirty_ = false;
    ++stats_.augment_calls;
    MC_COUNTER("mc.inc.augment_calls", 1);
    MC_AUDIT(AuditFlowConservation(network_, kSource, kSink, flow_value_,
                                   {.infinity_threshold = infinity_}));
  }
}

void IncrementalPassiveSolver::InitConflictCounts() {
  const size_t n = records_.size();
  if (points_.dimension() == 2) {
    // The ComputeContending sweep, counting instead of marking: a Fenwick
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
      return true;
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
      return true;
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
  network_dirty_ = false;
  dead_edge_entries_ = 0;
  active_finite_edges_ = 0;
  active_infinite_edges_ = 0;
  flow_value_ = 0.0;
  num_contending_ = 0;
  chains_.clear();
  network_ = FlowNetwork(2);
  infinity_ = std::max(1.0, 2.0 * total_weight_ + 1.0);
  for (PointRecord& record : records_) {
    record.contending = false;
    record.vertex = -1;
    record.relay = -1;
    record.terminal_edge = kNone;
    record.feed_edge = kNone;
    record.spine_edge = kNone;
    record.chain = kNone;
    record.chain_pos = kNone;
    record.wiring.clear();
    record.wiring.shrink_to_fit();
  }

  // Contending membership is conflicts > 0 (maintained incrementally and
  // just audited against the batch ComputeContending definition above).
  std::vector<size_t> ones;   // contending label-1, ascending
  std::vector<size_t> zeros;  // contending label-0, ascending
  for (size_t id = 0; id < records_.size(); ++id) {
    const PointRecord& record = records_[id];
    if (!record.live || record.conflicts == 0) continue;
    (record.label == 1 ? ones : zeros).push_back(id);
  }

  // Chains over the label-1 side only -- the relay construction never
  // consults label-0 chain membership, so decomposing the smaller set
  // keeps the same transparency argument with fewer chains.
  if (!ones.empty()) {
    MC_SPAN("inc/rebuild_chains");
    const ChainDecomposition decomposition = ScalableChainDecomposition(
        points_.Subset(ones), kSparseExactMatchingLimit);
    chains_.assign(decomposition.NumChains(), {});
    for (size_t c = 0; c < decomposition.chains.size(); ++c) {
      for (const size_t k : decomposition.chains[c]) {
        chains_[c].push_back(ones[k]);
      }
    }
  }

  // Point vertices + terminal edges in ascending id order, then relays in
  // chain order, then label-0 wiring -- the same deterministic layout a
  // replay of EnterContending calls would produce.
  for (size_t id = 0; id < records_.size(); ++id) {
    PointRecord& record = records_[id];
    if (!record.live || record.conflicts == 0) continue;
    record.contending = true;
    ++num_contending_;
    record.vertex = network_.AddVertex();
    record.terminal_edge =
        record.label == 0
            ? AddFiniteEdge(kSource, record.vertex, record.weight)
            : AddFiniteEdge(record.vertex, kSink, record.weight);
  }
  for (size_t c = 0; c < chains_.size(); ++c) {
    for (size_t t = 0; t < chains_[c].size(); ++t) {
      PointRecord& record = records_[chains_[c][t]];
      record.chain = c;
      record.chain_pos = t;
      record.relay = network_.AddVertex();
      record.feed_edge = AddInfiniteEdge(record.relay, record.vertex);
      record.spine_edge =
          t > 0 ? AddInfiniteEdge(record.relay,
                                  records_[chains_[c][t - 1]].relay)
                : kNone;
    }
  }
  // Per-point relay wiring: one binary search per (label-0 point, chain),
  // sharded with shard-order merge (the sparse builder's contract).
  const size_t num_zeros = zeros.size();
  const size_t max_shards = std::max<size_t>(
      size_t{1},
      std::min<size_t>(options_.parallel.Resolve(),
                       num_zeros == 0 ? 1 : num_zeros));
  struct WireHit {
    size_t zero_index;
    size_t chain;
    size_t target;
  };
  std::vector<std::vector<WireHit>> shard_hits(max_shards);
  ParallelFor(num_zeros, options_.parallel,
              [&](size_t begin, size_t end, size_t shard) {
                MC_SPAN("par.inc_rebuild_wiring");
                std::vector<WireHit>& hits = shard_hits[shard];
                for (size_t k = begin; k < end; ++k) {
                  const Point& point = points_[zeros[k]];
                  for (size_t c = 0; c < chains_.size(); ++c) {
                    if (chains_[c].empty()) continue;
                    const size_t t =
                        HighestDominatedPosition(points_, chains_[c], point);
                    if (t != kNoDominatedMember) {
                      hits.push_back(WireHit{k, c, chains_[c][t]});
                    }
                  }
                }
              });
  for (const size_t id : zeros) {
    records_[id].wiring.assign(chains_.size(), WireSlot{});
  }
  for (const auto& hits : shard_hits) {
    for (const WireHit& hit : hits) {
      PointRecord& record = records_[zeros[hit.zero_index]];
      record.wiring[hit.chain] = WireSlot{
          hit.target,
          AddInfiniteEdge(record.vertex, records_[hit.target].relay)};
    }
  }

  {
    MC_SPAN("inc/rebuild_solve");
    flow_value_ = solver_->Solve(network_, kSource, kSink);
  }
  network_dirty_ = false;
  result_dirty_ = true;
  MC_AUDIT(AuditFlowConservation(network_, kSource, kSink, flow_value_,
                                 {.infinity_threshold = infinity_}));
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
  // relay purity over the interleaved relay layout.
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

  // (2) The warm result is bit-identical to a cold solve on the same
  // snapshot: same assignment, same weighted error, same classifier on
  // the snapshot's points. Only the raw flow value gets a float
  // tolerance (it is a running sum on the warm side).
  const WeightedPointSet snapshot = Snapshot();
  PassiveSolveOptions cold_options;
  cold_options.algorithm = options_.algorithm;
  const PassiveSolveResult cold = SolvePassiveWeighted(snapshot, cold_options);
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
