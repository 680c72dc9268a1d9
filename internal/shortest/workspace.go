package shortest

import (
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Workspace holds the scratch arrays shared by the SPFA and Bellman–Ford
// kernels in this package: distances, parent pointers, and the SPFA queue
// links and parent-walk stamps. Allocating these dominates the cost of a
// single search on small graphs, and the solver's hot loops (cycle
// cancellation, budget sweeps, Lagrangian iterations) run thousands of
// searches over graphs of identical or slowly-growing size — a Workspace
// amortizes the allocations to zero.
//
// A Workspace may be reused freely across calls and across graphs of
// different sizes (Grow reallocates only on expansion), but it is NOT safe
// for concurrent use: each bicameral Find builds its own, so solves that
// run side by side share none.
//
// Trees returned by the *_Into kernels alias the workspace's dist/parent
// arrays: they are valid until the next *_Into call on the same Workspace.
// Callers that need the tree to outlive the workspace must copy it.
type Workspace struct {
	dist    []int64
	parent  []graph.EdgeID
	stamp   []int          // parent-walk ids of the SPFA cycle search
	next    []graph.NodeID // SPFA FIFO links: next[v] follows v, or notQueued
	metrics *obs.ShortestMetrics
	cancel  *cancel.Canceller
}

// SetMetrics attaches a metric sink to the workspace; every SPFA kernel
// run through it then reports run/relaxation/negative-cycle counts. A nil
// sink (the default) records nothing. The workspaces of solves running side
// by side may share one sink: recording is atomic.
func (ws *Workspace) SetMetrics(m *obs.ShortestMetrics) { ws.metrics = m }

// SetCancel attaches a Canceller: kernels run through the workspace then
// poll it in their relaxation loops and bail out early once it stops. A nil
// Canceller (the default) costs one branch per poll site and nothing more.
// Like the workspace, a Canceller is single-goroutine state. The search
// attaches its caller's Canceller, so a kernel poll that sees the deadline
// latches it for the caller too.
//
// Cancellation semantics per kernel family: the bounded kernel
// (SPFAAllBoundedCSRInto) reports its usual no-verdict; the verdict kernels
// (SPFAAllCSRInto, BellmanFord*CSRInto) return ok=true with an empty cycle,
// i.e. a conservative "nothing found". Solve-path callers must therefore
// check their Canceller after a kernel returns before trusting a negative
// verdict — core treats a stopped Canceller as "degrade now", never as
// proof that no cycle exists.
func (ws *Workspace) SetCancel(c *cancel.Canceller) { ws.cancel = c }

// recordSPFA folds one kernel run into the attached sink, if any. Counts
// are accumulated locally by the kernel and recorded once per run, so the
// relaxation loop carries no atomics.
func (ws *Workspace) recordSPFA(relaxations int, negCycle bool) {
	ws.metrics.RecordRun(int64(relaxations), negCycle)
}

// NewWorkspace returns a workspace sized for graphs of up to n vertices.
// It grows on demand, so n is a hint, not a limit.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{}
	ws.Grow(n)
	return ws
}

// Grow ensures capacity for n vertices, reallocating only on expansion.
//
// It is the cold path of every kernel's scratch sizing and stays out of
// line. Inlined, it would pull allSources and resetQueue into the
// //krsp:inbounds kernels that call them, and with them their O(1) slice
// checks, which the bounds-check audit (make bce-audit) counts against the
// kernels.
//
//go:noinline
func (ws *Workspace) Grow(n int) {
	if n <= cap(ws.dist) {
		return
	}
	ws.dist = make([]int64, n)          //lint:allow contracts amortized: reallocates only on expansion (n > cap), zero steady-state
	ws.parent = make([]graph.EdgeID, n) //lint:allow contracts amortized: reallocates only on expansion (n > cap), zero steady-state
	ws.stamp = make([]int, n)           //lint:allow contracts amortized: reallocates only on expansion (n > cap), zero steady-state
	ws.next = make([]graph.NodeID, n)   //lint:allow contracts amortized: reallocates only on expansion (n > cap), zero steady-state
}

// allSources returns a Tree backed by the workspace, sized (and re-sliced)
// to n vertices and seeded for the virtual super-source: every distance 0,
// no parents.
func (ws *Workspace) allSources(n int) Tree {
	ws.Grow(n)
	t := Tree{Dist: ws.dist[:n], Parent: ws.parent[:n]}
	for v := range t.Dist {
		t.Dist[v] = 0
		t.Parent[v] = -1
	}
	return t
}

// SPFA queue links: the FIFO is a singly linked list threaded through
// next, so next[v] is the vertex queued after v, queueEnd after the last
// one, and notQueued when v is not in the queue.
const (
	queueEnd  graph.NodeID = -1
	notQueued graph.NodeID = -2
)

// resetQueue empties the SPFA queue and clears the walk stamps for n
// vertices, returning both.
func (ws *Workspace) resetQueue(n int) (next []graph.NodeID, stamp []int) {
	ws.Grow(n)
	next = ws.next[:n]
	stamp = ws.stamp[:n]
	for i := 0; i < n; i++ {
		next[i] = notQueued
		stamp[i] = 0
	}
	return next, stamp
}

// Clone of a workspace-backed tree into fresh memory, for callers that keep
// results across further workspace use.
func (t Tree) Clone() Tree {
	return Tree{
		Dist:   append([]int64(nil), t.Dist...),
		Parent: append([]graph.EdgeID(nil), t.Parent...),
	}
}
