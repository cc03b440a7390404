// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Incremental warm-start passive solving with delta-audited flow repair.
//
// SolvePassiveWeighted answers one snapshot; serving-shaped workloads see
// a *stream* of inserts, deletes and label corrections, and re-running
// the cold pipeline per delta wastes almost all of its work: the Lemma 15 contending reduction is
// naturally incremental -- a delta only perturbs its own dominance
// neighborhood. IncrementalPassiveSolver keeps the whole pipeline alive
// between deltas:
//
//   * the conflict structure: a per-point count of dominance conflicts
//     (the pair form of the Lemma 15 predicate, LabelsConflict), so a
//     delta knows exactly which points enter or leave the contending set
//     after one O(d n) scan;
//   * the chain structure: chains over the contending label-1 points,
//     extended in O(log |chain|) per member via ChainInsertPosition;
//   * the sparse chain-relay network: one relay per contending label-1
//     point, patched edge-by-edge -- a delta rewires only the touched
//     chain's spine and the label-0 points whose relay target
//     (HighestDominatedPosition) changed. The network is the only record
//     of a wire: a label-0 point's wires are its vertex's live out-edges.
//     A rebuild takes chains and network from the cold solver's builder,
//     BuildSparseChainRelayNetwork (passive/sparse_network.h);
//   * the flow: edges to be removed are drained path-by-path (DrainEdge
//     cancels only the flow actually crossing the edge). The last
//     repair's source side is kept as a max-flow certificate: a vertex
//     set holding the source, not the sink, with no residual edge
//     leaving it. A delta records the edges whose residual it raised;
//     the repair grows the set across them and runs Dinic on the warm
//     network only when the growth reaches the sink, i.e. only when the
//     cut can move. The flow is maximum again after every delta.
//
// The repair-equals-cold-solve invariant (docs/incremental.md): for any
// maximum flow of any valid chain-relay network over the current
// snapshot, the residual-reachable set is the unique inclusion-minimal
// minimum-cut source side, so the extracted assignment -- and, through
// the shared FinalizePassiveResult, the classifier and the weighted
// error -- is bit-identical to a cold SolvePassive on the snapshot.
// AuditIncrementalCut() proves this on demand: it re-audits the repaired
// network (AuditMinCut with an explicit relay mask) and cross-checks the
// warm result against an actual cold solve, field by field.
//
// Determinism contract: all O(n) delta scans shard with per-shard
// buffers merged in shard order, so the patched network -- and hence the
// classifier -- is bit-identical at any thread count.

#ifndef MONOCLASS_PASSIVE_INCREMENTAL_SOLVER_H_
#define MONOCLASS_PASSIVE_INCREMENTAL_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "graph/dinic.h"
#include "graph/graph.h"
#include "passive/flow_solver.h"
#include "util/audit.h"
#include "util/concurrency.h"

namespace monoclass {

struct IncrementalSolveOptions {
  // Parallelism for the O(n) conflict scans and the rebuild wiring; the
  // same shard-merge determinism contract as PassiveSolveOptions.
  ParallelOptions parallel;
};

// Lifetime counters for the delta pipeline (mirrored into the mc.inc.*
// observability counters; see docs/incremental.md).
struct IncrementalStats {
  uint64_t deltas = 0;
  uint64_t inserts = 0;
  uint64_t erases = 0;
  uint64_t relabels = 0;
  uint64_t enter_contending = 0;
  uint64_t leave_contending = 0;
  uint64_t drained_paths = 0;
  uint64_t deactivated_edges = 0;
  uint64_t retarget_edges = 0;
  // Repairs attempted (deltas that patched the network) and, of those,
  // the ones whose certificate growth reached the sink and ran Dinic.
  uint64_t augment_calls = 0;
  uint64_t maxflow_runs = 0;
  // Vertices the certificate growth added, over all repairs.
  uint64_t certificate_visits = 0;
  uint64_t rebuilds = 0;
  uint64_t audits = 0;
};

class IncrementalPassiveSolver {
 public:
  explicit IncrementalPassiveSolver(IncrementalSolveOptions options = {});
  // Bulk-loads `initial` (ids 0..initial.size()-1) and cold-solves once.
  // Counting the conflicts takes O(n log n) at d = 2 and O(d n^2)
  // otherwise. Every weight must exceed kFlowEps (CheckPassiveWeight).
  explicit IncrementalPassiveSolver(const WeightedPointSet& initial,
                                    IncrementalSolveOptions options = {});

  // Appends a live point and repairs the solution. Returns the point's
  // id; ids are dense, stable and never reused. `weight` must exceed
  // kFlowEps (CheckPassiveWeight).
  size_t Insert(const Point& point, Label label, double weight = 1.0);

  // Removes a live point (id keeps addressing its slot but turns dead).
  void Erase(size_t id);

  // Changes a live point's label in place; a no-op when unchanged.
  void Relabel(size_t id, Label label);

  bool IsLive(size_t id) const {
    return id < records_.size() && records_[id].live;
  }
  size_t LiveSize() const { return live_count_; }
  // Live ids in increasing order: position k here is row k of Snapshot()
  // and of the solved assignment.
  std::vector<size_t> LiveIds() const;
  // The current live multiset, in LiveIds() order -- exactly what a cold
  // SolvePassiveWeighted would be handed.
  WeightedPointSet Snapshot() const;

  // The repaired solution for the current snapshot, in the same shape a
  // cold SolvePassiveWeighted returns (assignment rows follow LiveIds()
  // order). Cached until the next delta. An empty snapshot yields the
  // all-zero classifier with zero error.
  const PassiveSolveResult& Solve();

  // Proves the repaired solution: re-audits the patched network's cut
  // from first principles (AuditMinCut with an explicit relay mask,
  // Lemmas 7/8/18 + relay purity) and cross-checks assignment, weighted
  // error and classifier bit-for-bit against a cold SolvePassive on
  // Snapshot(). It costs a cold solve (O(d n^2) + T_maxflow, the
  // quadratic passes O(n log n) at d = 2) -- this is the proof
  // obligation, not the fast path.
  AuditResult AuditIncrementalCut();

  const IncrementalStats& stats() const { return stats_; }
  // Chains currently holding at least one member / relay vertices in use.
  size_t NumChains() const;
  size_t NumRelays() const;
  size_t NumContending() const { return num_contending_; }
  double FlowValue() const { return flow_value_; }
  // Dead (drained + deactivated) edge entries awaiting compaction.
  size_t DeadEdgeEntries() const { return dead_edge_entries_; }

 private:
  // White-box seam for tests/audit_failure_test.cc: the negative audit
  // tests corrupt the repaired flow state directly and prove that
  // AuditIncrementalCut actually fires on a bad cut (a green audit is
  // only evidence if the audit demonstrably rejects corruption).
  friend struct IncrementalSolverTestPeer;

  static constexpr size_t kNone = static_cast<size_t>(-1);
  static constexpr int kSource = 0;
  static constexpr int kSink = 1;
  // Deactivated edges stay in the network as inert zero-capacity
  // entries. Once they number at least kCompactMinDeadEdges and exceed
  // this fraction of the stored edges, the solver compacts: a rebuild.
  static constexpr double kCompactDeadEdgeRatio = 0.5;
  static constexpr size_t kCompactMinDeadEdges = 64;

  struct PointRecord {
    Label label = 0;
    double weight = 0.0;
    bool live = false;
    bool contending = false;
    // Number of live opposite-label dominance conflicts (LabelsConflict
    // partners); contending == (conflicts > 0) for live points.
    size_t conflicts = 0;
    // Network vertices, allocated lazily on first contending stint and
    // reused across stints (-1 while unallocated).
    int vertex = -1;
    int relay = -1;  // label-1 stints only
    // Edge handles (indices into their tail vertex's adjacency list);
    // kNone while absent.
    size_t terminal_edge = static_cast<size_t>(-1);
    size_t feed_edge = static_cast<size_t>(-1);   // relay -> own vertex
    size_t spine_edge = static_cast<size_t>(-1);  // relay -> next relay down
    // Chain membership (label-1 contending only).
    size_t chain = static_cast<size_t>(-1);
    size_t chain_pos = static_cast<size_t>(-1);
  };

  // O(d n) sharded scan: live points conflicting with `id` under the
  // labels currently stored, in increasing id order.
  std::vector<size_t> ConflictPartners(size_t id) const;
  // Counts `id`'s conflicts under its current label into it and its
  // partners, then enters the points whose count left 0, ascending.
  void RaiseConflicts(size_t id);
  // Takes them back out; the points whose count reached 0, `id` among
  // them if it was contending, leave in ascending order.
  void DropConflicts(size_t id);

  void EnterContending(size_t id);
  void LeaveContending(size_t id);
  void InsertChainMember(size_t id);
  void RemoveChainMember(size_t id);
  // The live wires into `relay`, as (label-0 id, index of the wire in
  // that point's vertex adjacency), in ascending id order.
  std::vector<std::pair<size_t, size_t>> WiresInto(int relay) const;
  // Appends a network vertex owned by `id` (its point vertex or relay).
  int AddVertex(size_t id);

  size_t AddFiniteEdge(int u, int v, double capacity);
  size_t AddInfiniteEdge(int u, int v);
  // Records adjacency(u)[edge_index], whose residual just rose, for the
  // next repair -- if it leaves the certificate. Only such an edge can
  // open it: membership is fixed until the repair, and a vertex the
  // growth adds has all its edges scanned.
  void NoteRaised(int u, size_t edge_index);
  // Drains the edge's flow path-by-path, deactivates it and updates the
  // dead-edge accounting.
  void RemoveEdge(int u, size_t edge_index);
  // Cancels all flow crossing adjacency(u)[edge_index]: repeatedly walks
  // one flow-carrying path source ~> u -> . ~> sink through the edge and
  // cancels the bottleneck. The network is a DAG, so each walk
  // terminates; conservation holds before and after.
  void DrainEdge(int u, size_t edge_index);

  void FinishDelta();
  // Grows the certificate through residual edges from the recorded
  // raised edges and clears the record. Returns true when the growth
  // reaches the sink (an augmenting path may exist; the certificate is
  // then void until TakeCertificate), false when the grown set is
  // closed again and the flow is still maximum.
  bool GrowCertificate();
  // Takes the certificate from what the last Dinic level graph reached.
  void TakeCertificate();
  bool InCertificate(int v) const {
    return static_cast<size_t>(v) < certificate_.size() &&
           certificate_[static_cast<size_t>(v)] != 0;
  }
  // The certificate holds the source, not the sink, and no residual
  // edge leaves it.
  AuditResult AuditCertificate() const;
  bool NeedsRebuild() const;
  // Compaction / cold start: re-derives chains, network (through
  // BuildSparseChainRelayNetwork) and flow from the live records
  // (conflict counts are maintained incrementally and stay authoritative
  // across rebuilds).
  void Rebuild();
  // Bulk-load counts: an O(n log n) sweep with a Fenwick tree over y
  // ranks at d = 2, the sharded O(d n^2) pairwise scan elsewhere.
  void InitConflictCounts();
  // O(d n^2) recount of every conflict counter, for MC_AUDIT.
  AuditResult AuditConflictCounts() const;

  IncrementalSolveOptions options_;
  DinicSolver dinic_;

  // Append-only point storage; id == index. Labels/weights/liveness live
  // in records_ (points of erased ids stay, dead).
  PointSet points_;
  std::vector<PointRecord> records_;
  size_t live_count_ = 0;
  size_t num_contending_ = 0;
  double total_weight_ = 0.0;

  // Chains of contending label-1 ids, each ascending under weak
  // dominance. Chains may be empty between a member's departure and the
  // next first-fit reuse.
  std::vector<std::vector<size_t>> chains_;

  FlowNetwork network_{2};  // vertex 0 = source, 1 = sink
  // The id owning each network vertex, as its point vertex or its relay
  // (kNone for source and sink). A tail `v` is a point vertex exactly
  // when records_[vertex_ids_[v]].vertex == v.
  std::vector<size_t> vertex_ids_ = {kNone, kNone};
  double infinity_ = 1.0;   // capacity of dominance edges (Lemma 18)
  double flow_value_ = 0.0;
  size_t active_finite_edges_ = 0;
  size_t active_infinite_edges_ = 0;
  size_t dead_edge_entries_ = 0;
  bool network_dirty_ = false;   // patch since the last repair
  bool pending_rebuild_ = false; // infinity_ headroom exhausted

  // Max-flow certificate: certificate_[v] != 0 marks a vertex set that
  // holds the source, not the sink, and has no residual edge leaving
  // it, so no augmenting path exists (max-flow/min-cut duality).
  // Vertices past its end are outside. It may hold stale members that
  // residual decreases cut off; they cost at most a Dinic run that adds
  // nothing. The empty network's certificate is {source}.
  std::vector<uint8_t> certificate_ = {1, 0};
  // Raised edges leaving the certificate since the last repair, as
  // (tail, edge index); and the growth's DFS stack.
  std::vector<std::pair<int, size_t>> raised_;
  std::vector<int> growth_stack_;

  bool result_dirty_ = true;
  std::optional<PassiveSolveResult> result_;

  IncrementalStats stats_;
};

}  // namespace monoclass

#endif  // MONOCLASS_PASSIVE_INCREMENTAL_SOLVER_H_
