package live

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Maintenance sessions. Every LiveView is served by one session (shard.go)
// spread over 1+len(ViewConfig.Workers) hosts: the serving process is host
// 0, the coordinator, and every `spinflow worker` process hosts one
// contiguous partition range through a long-lived conversation on a
// control connection (the distrib listener hands every conversation to
// this package's WorkerHost) plus the TCP data plane. A view without workers is the same
// session with one host: no transport, no listener, and every control
// fan-out runs over zero connections. The host count never changes which
// maintenance decision is taken — only who holds which partitions.
//
// Each host owns one shardCore: an identical replica of the graph, the
// spec and plan derived from it (digest-verified at open and after every
// re-plan), the placement, and a resident Fixpoint over its partitions.
// Every host applies every mutation batch to its replica, so anything that
// depends only on (replica, batch) — which edges were removed, whether the
// overlay folds, the edge-table patch a fold applies, the region's resets
// and seeds — is derived independently and agrees byte-for-byte; each host
// patches only the cached tables of the partitions it hosts, so a fold
// ships nothing. Solution state is partitioned: a host's hosted
// partitions are exact, the rest are stale, and a stale label may *mask* a
// propagation the fixpoint needs — so hostedReader serves only owned
// labels and lets the maintainer's fallback produce a sound candidate for
// the rest. What travels per batch is the batch itself, the remote-keyed
// insert candidates, and — for batches that remove something — each host's
// surviving record count and the coordinator's verdict: a bounded
// recompute over the region it scoped from its replica alone, or full.

// verb is a session control verb — a worker control connection carries
// nothing else, for live views and one-shot jobs (job.go) alike. The
// coordinator sends a verb and the worker answers with a message of the
// same verb, or one that carries Err and ends the session. A connection
// carries one session, which ends when the coordinator hangs up.
type verb string

const (
	viewOpen    verb = "view_open"    // spec + graph (the snapshot's two checkpoint sections); Full = start cold from S0/W0, unset = recovering, view_load frames follow → data addr + plan digest
	viewStart   verb = "view_start"   // all data addrs; mesh now — legal once, right after view_open
	viewLoad    verb = "view_load"    // one frame of a recovered solution; Init it
	viewApply   verb = "view_apply"   // one mutation batch → Count removed edges, Full = something was removed (Records = hosted records the batch leaves), plan digest
	viewReplan  verb = "view_replan"  // the verdict — Full = reset + S0/W0, else fold + reset the region in Frames → plan digest
	viewGather  verb = "view_gather"  // derive insert candidates (Round 0 = fresh batch) → remote-keyed candidate frames, Count = retained
	viewSeed    verb = "view_seed"    // merged workset; seed it → Count = hosted candidates that improve
	viewStep    verb = "view_step"    // run one superstep (barrier release) at plan Epoch → local next-workset Count + the Epoch it ran at
	viewEpoch   verb = "view_epoch"   // plan swap — re-plan for global workset Count, become Epoch → the re-planned digest
	viewQuery   verb = "view_query"   // lookup Key in a hosted partition → the record, or none
	viewCollect verb = "view_collect" // ship hosted partitions → their records (+ spans)
	viewStats   verb = "view_stats"   // report hosted occupancy → Count records / Bytes resident
)

// shardSpec is everything a worker needs to build its identical share of
// the session: the view's recipe (maintainer, parallelism, solution
// budget), the topology, and the rest of the execution config.
type shardSpec struct {
	recipe
	Name       string `json:"name"`
	Hosts      int    `json:"hosts"`
	TraceID    uint64 `json:"trace_id,omitempty"`
	TraceLabel string `json:"trace_label,omitempty"`
}

// shardMsg is the one wire shape of every control message (the JSON body
// of one frame, ctlConn; Kind selects which fields are meaningful).
type shardMsg struct {
	Kind      verb       `json:"kind"`
	Spec      *shardSpec `json:"spec,omitempty"`
	HostID    int        `json:"host_id,omitempty"`
	DataAddr  string     `json:"data_addr,omitempty"`
	DataAddrs []string   `json:"data_addrs,omitempty"`
	Digest    string     `json:"digest,omitempty"`
	Count     int        `json:"count,omitempty"`
	Records   int        `json:"records,omitempty"`
	Round     int        `json:"round,omitempty"`
	Epoch     int        `json:"epoch,omitempty"`
	Full      bool       `json:"full,omitempty"`
	Key       int64      `json:"key,omitempty"`
	Bytes     int64      `json:"bytes,omitempty"`
	Frames    []byte     `json:"frames,omitempty"`
	Spans     []obs.Span `json:"spans,omitempty"`
	Err       string     `json:"err,omitempty"`
}

// --- record codec --------------------------------------------------------

// packRecords is the wire form of every record payload on the control
// plane (candidate worksets, solution records in either direction): a
// flags byte plus varint fields, skipping zero B/X — a quarter of the
// framed record encoding, which matters because these payloads dominate
// what a sharded flush ships. Mutation batches travel in their own
// encoding (appendMutations), and the graph CRC-framed, as the checkpoint
// sections a snapshot stores it in.
func packRecords(recs []record.Record) []byte {
	out := make([]byte, 0, 8*len(recs)+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(recs)))
	var xb [8]byte
	for _, r := range recs {
		var flags byte
		if r.B != 0 {
			flags |= 1
		}
		if r.X != 0 {
			flags |= 2
		}
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(r.A))
		if flags&1 != 0 {
			out = binary.AppendUvarint(out, uint64(r.B))
		}
		if flags&2 != 0 {
			binary.LittleEndian.PutUint64(xb[:], math.Float64bits(r.X))
			out = append(out, xb[:]...)
		}
	}
	return out
}

// unpackRecords decodes a packRecords payload. A flags byte with any bit
// but B's and X's is malformed.
func unpackRecords(p []byte) ([]record.Record, error) {
	bad := fmt.Errorf("live: malformed packed records")
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, bad
	}
	p = p[w:]
	out := make([]record.Record, 0, int(min(n, 1<<16))) // clamped before the conversion: n is untrusted
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return nil, bad
		}
		flags := p[0]
		if flags&^3 != 0 {
			return nil, bad // a flag this encoder never sets: a stale or foreign peer
		}
		p = p[1:]
		var r record.Record
		a, w := binary.Uvarint(p)
		if w <= 0 {
			return nil, bad
		}
		r.A = int64(a)
		p = p[w:]
		if flags&1 != 0 {
			b, w := binary.Uvarint(p)
			if w <= 0 {
				return nil, bad
			}
			r.B = int64(b)
			p = p[w:]
		}
		if flags&2 != 0 {
			if len(p) < 8 {
				return nil, bad
			}
			r.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		out = append(out, r)
	}
	if len(p) != 0 {
		return nil, bad
	}
	return out, nil
}

// --- per-host session core ----------------------------------------------

// overlayFoldFactor bounds the unfolded edge overlay by the batch: it
// folds into the plan's edge table once it holds more than
// overlayFoldFactor times the current batch's inserts, because every
// candidate round past the first re-examines all of it. A flush's rounds
// thus cost O(batch), never O(|E|), and the fold — a patch of the cached
// table with the overlay's net change — amortizes to O(batch) per flush.
const overlayFoldFactor = 8

// shardCore is one host's share of a maintenance session: the graph
// replica, the locally derived spec and plan, and a resident Fixpoint over
// this host's partition range. The coordinator owns core 0 (its gs aliases
// the LiveView's); each worker owns one with a replica gs.
type shardCore struct {
	m    Maintainer
	cfg  iterative.Config
	host int
	gs   *GraphState
	// place assigns partitions to hosts; hosted lists this host's.
	place  runtime.Placement
	hosted []int
	mtr    *metrics.Counters
	// stats takes the maintenance counters: the view's on the coordinator,
	// a scratch value on workers.
	stats *ViewStats

	// tr is the meshed data plane (dataAddr its listen address); nil on a
	// one-host session, whose exchanges never leave process memory.
	tr       *runtime.TCPTransport
	dataAddr string
	sol      *runtime.SolutionSet
	fx       *iterative.Fixpoint
	spec     iterative.IncrementalSpec
	// sources are the plan's Source nodes in construction order, so fold
	// can swap their data in place; planEdges is the edge count the plan
	// was costed with; digest identifies the plan across hosts.
	sources   []*dataflow.Node
	planEdges int
	digest    string
	// epoch counts the coordinated mid-run plan swaps (specs that set
	// Reoptimize) this host has applied; the barrier rejects a host whose
	// count disagrees before its traffic is routed under the wrong plan.
	epoch int

	// overlay holds edges live in gs but not yet folded into the plan's
	// cached edge table: the insert fast path leaves the caches as they are
	// and re-derives candidates over these edges until the solution is a
	// fixpoint over N ∪ overlay. fresh holds the *current* batch's inserts,
	// the round-0 candidate source. Both evolve identically on every host.
	overlay []WEdge
	fresh   []WEdge
	// edits logs every change to a directed edge since the cached edge
	// table last matched gs, with the edge's prior state — one append per
	// mutation; fold nets them into the table's patch.
	edits []edgeEdit
	// The current batch's removals, identical on every host: removed lists
	// the edges whose disappearance (or re-weighting) needs repair, cut
	// the ones among them that existed before the batch — the only ones
	// whose loss can split what the solution converged over — dropVerts
	// the vertices that left, newVerts the ones that arrived.
	removed   []WEdge
	cut       []WEdge
	dropVerts []int64
	newVerts  []int64
	// seeds are this host's share of a bounded recompute's region seed;
	// they join the round-0 candidates.
	seeds []record.Record
	// pending buffers this host's own-keyed candidates between the gather
	// and seed verbs of one round: candidates a host emits for keys it owns
	// never travel — only remote-keyed ones go up to the coordinator, which
	// routes every candidate straight to its owner.
	pending []record.Record
}

// edgeEdit is one change to the directed edge (src, dst): had and w are
// whether it existed before the change, and with what weight.
type edgeEdit struct {
	src, dst int64
	w        float64
	had      bool
}

// specFor assembles the per-host iterative.Config a shardSpec describes.
// The session records its work into reg's shared counters, beside every
// other session the host serves, or into a set of its own without reg.
func specFor(ss shardSpec, hostID int, reg *obs.Registry) iterative.Config {
	mtr := &metrics.Counters{}
	if reg != nil {
		mtr = reg.Counters()
	}
	cfg := iterative.Config{
		Parallelism:          ss.Parallelism,
		Hosts:                ss.Hosts,
		Host:                 hostID,
		Metrics:              mtr,
		SolutionMemoryBudget: ss.SolutionMemoryBudget,
	}
	if reg != nil {
		cfg.Obs = reg
		cfg.TraceID = obs.TraceID(ss.TraceID)
		cfg.TraceLabel = ss.TraceLabel
	}
	return cfg
}

// newShardCore builds host cfg.Host's share of a cfg.Hosts-wide session
// over gs: spec and plan, the solution set, the resident fixpoint, and —
// with more than one host — the transport, listening on an ephemeral port
// but not yet connected (that waits until every data addr is known). A
// recovering core skips the cold run: its solution set stays empty for
// session.Load to stream a snapshot into. Otherwise S0 is loaded and the
// returned workset is the cold W0 the coordinator must drive (nil on
// workers, which seed their share themselves).
func newShardCore(m Maintainer, cfg iterative.Config, gs *GraphState,
	recovering bool, stats *ViewStats) (*shardCore, []record.Record, error) {
	spec, s0, w0 := m.Spec(gs)
	phys, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	c := &shardCore{
		m: m, cfg: cfg, host: cfg.Host, gs: gs,
		place: runtime.ContiguousPlacement(cfg.Parallelism, cfg.Hosts),
		mtr:   cfg.Metrics, stats: stats,
	}
	c.hosted = c.place.HostedBy(c.host)
	c.sol = runtime.NewSolutionSetWith(cfg.Parallelism, spec.SolutionKey, spec.Comparator, c.mtr,
		cfg.SolutionMemoryBudget)
	var tr runtime.Transport
	if cfg.Hosts > 1 {
		c.tr = runtime.NewTCPTransport(c.host, c.place, phys.NumEdges, c.mtr)
		if cfg.Obs != nil {
			c.tr.SetObs(cfg.TraceID, cfg.Obs.Histogram("transport_send_duration"))
		}
		if c.dataAddr, err = c.tr.Listen("127.0.0.1:0"); err != nil {
			c.close()
			return nil, nil, err
		}
		tr = c.tr
	}
	if c.fx, err = iterative.OpenFixpointOn(spec, c.sol, cfg, phys, tr); err != nil {
		c.close()
		return nil, nil, err
	}
	c.setSpec(spec)
	if recovering {
		return c, nil, nil
	}
	return c, c.cold(s0, w0), nil
}

// setSpec installs the spec the fixpoint was just (re)bound to, with the
// bookkeeping that hangs off it. Everything in gs is in the new plan's
// edge table, so the overlay and the edit log empty.
func (c *shardCore) setSpec(spec iterative.IncrementalSpec) {
	c.spec = spec
	c.sources = sourcesOf(spec)
	c.planEdges = c.gs.NumEdges()
	c.digest = c.fx.Plan().Fingerprint()
	c.overlay, c.edits = c.overlay[:0], c.edits[:0]
}

// sourcesOf lists a spec's Source nodes in construction order.
func sourcesOf(spec iterative.IncrementalSpec) []*dataflow.Node {
	var out []*dataflow.Node
	for _, n := range spec.Plan.Nodes() {
		if n.Contract == dataflow.Source {
			out = append(out, n)
		}
	}
	return out
}

// rebind re-plans the resident session onto a structurally new spec; the
// executor, the transport and the solution set survive.
func (c *shardCore) rebind(spec iterative.IncrementalSpec) error {
	if err := c.fx.Rebind(spec); err != nil {
		return err
	}
	c.setSpec(spec)
	c.stats.Rebinds++
	return nil
}

// cold loads S0 and arms W0: a worker seeds its share now, the coordinator
// gets W0 back to drive it through the barrier.
func (c *shardCore) cold(s0, w0 []record.Record) []record.Record {
	c.sol.Reset()
	c.sol.Init(s0)
	if c.host != 0 {
		c.fx.SeedWorkset(w0)
		return nil
	}
	return w0
}

// applyBatch advances the graph replica by one mutation batch. The
// solution set is untouched when something was removed — it stays as the
// batch found it until the coordinator's verdict arrives; a batch that
// removed nothing needs no verdict and settles right away.
func (c *shardCore) applyBatch(muts []Mutation) error {
	c.absorb(muts)
	if c.removes() {
		return nil
	}
	_, err := c.settle(false, nil)
	return err
}

// absorb applies one mutation batch to the graph replica, recording what
// the batch inserted and removed. Its ops were checked on the way in
// (checkOps).
func (c *shardCore) absorb(muts []Mutation) {
	c.fresh, c.removed, c.cut = c.fresh[:0], c.removed[:0], c.cut[:0]
	c.dropVerts, c.newVerts = c.dropVerts[:0], c.newVerts[:0]
	start := len(c.edits)
	addVertex := func(vid int64) {
		if c.gs.AddVertex(vid) {
			c.newVerts = append(c.newVerts, vid)
		}
	}
	for _, mut := range muts {
		switch mut.Op {
		case OpInsertEdge:
			addVertex(mut.Src)
			addVertex(mut.Dst)
			oldW, existed := c.gs.EdgeWeight(mut.Src, mut.Dst)
			if c.gs.AddEdge(mut.Src, mut.Dst, mut.Weight) {
				c.edits = append(c.edits, edgeEdit{mut.Src, mut.Dst, oldW, existed})
				e := WEdge{Src: mut.Src, Dst: mut.Dst, Weight: mut.Weight}
				c.overlay = append(c.overlay, e)
				c.fresh = append(c.fresh, e)
				if existed && oldW != mut.Weight {
					// Re-weighting an existing edge is not monotone (the
					// weight may have increased, lengthening paths through
					// it): repair like a deletion of the old edge.
					c.removed = append(c.removed, e)
				}
			}
		case OpDeleteEdge:
			if w, ok := c.gs.RemoveEdge(mut.Src, mut.Dst); ok {
				c.edits = append(c.edits, edgeEdit{mut.Src, mut.Dst, w, true})
				c.removed = append(c.removed, WEdge{Src: mut.Src, Dst: mut.Dst})
			}
		case OpAddVertex:
			addVertex(mut.Src)
		case OpDeleteVertex:
			if c.gs.HasVertex(mut.Src) {
				gone := c.gs.RemoveVertex(mut.Src)
				for _, e := range gone {
					c.edits = append(c.edits, edgeEdit{e.Src, e.Dst, e.Weight, true})
				}
				c.removed = append(c.removed, gone...)
				c.dropVerts = append(c.dropVerts, mut.Src)
			}
		}
	}
	if !c.removes() {
		return
	}
	// An edge the same batch inserted and then removed (or re-weighted
	// again) must not propose candidates.
	live := c.fresh[:0]
	for _, e := range c.fresh {
		if w, ok := c.gs.EdgeWeight(e.Src, e.Dst); ok && w == e.Weight {
			live = append(live, e)
		}
	}
	c.fresh = live
	// An edge's first edit in the batch saw its pre-batch state.
	before := make(map[[2]int64]bool, len(c.edits)-start)
	for _, e := range c.edits[start:] {
		k := [2]int64{e.src, e.dst}
		if _, ok := before[k]; !ok {
			before[k] = e.had
		}
	}
	for _, e := range c.removed {
		if before[[2]int64{e.Src, e.Dst}] {
			c.cut = append(c.cut, e)
		}
	}
}

// removes reports whether the current batch removed anything.
func (c *shardCore) removes() bool { return len(c.removed)+len(c.dropVerts) > 0 }

// survivors counts the records in this host's partitions that outlive the
// current batch (its dropped vertices' entries are about to leave); it is
// read while the solution is still as the batch found it.
func (c *shardCore) survivors() int {
	n := c.hostedRecords()
	for _, d := range c.dropVerts {
		if _, ok := c.lookup(d); ok {
			n--
		}
	}
	return n
}

// settle brings this host's plan and solution state to where the candidate
// rounds start from. full is the coordinated full recompute (the returned
// W0 is the coordinator's to drive). Otherwise: dropped vertices leave the
// solution; the overlay folds into the plan's cached edge table when the
// batch removed something (stale edges would resurrect retracted state),
// when the edge count has drifted 4x from the plan's, or when the overlay
// outgrows overlayFoldFactor × the batch's inserts — so the rounds past the
// first never rescan more than that; the region of a bounded recompute is
// re-initialized (every host derives the same resets and seeds from its
// replica and keeps the ones it owns), and fresh vertices enter the
// solution. The fold decision reads only replica state, so every host
// takes it alike.
func (c *shardCore) settle(full bool, region []int64) ([]record.Record, error) {
	if full {
		return c.recompute()
	}
	for _, d := range c.dropVerts {
		if c.ownsKey(d) {
			c.sol.Delete(d)
		}
	}
	if c.removes() || c.drifted() || len(c.overlay) > overlayFoldFactor*len(c.fresh) {
		if err := c.fold(); err != nil {
			return nil, err
		}
	}
	if len(region) > 0 {
		resets, seed, drops := c.m.RecomputeSeed(c.gs, region)
		for _, d := range drops {
			if c.ownsKey(d) {
				c.sol.Delete(d)
			}
		}
		for _, r := range resets {
			if c.ownsKey(c.spec.SolutionKey(r)) {
				c.sol.ForceStore(r)
			}
		}
		c.seeds = c.splitByHost(seed)[c.host]
		if c.mtr != nil {
			c.mtr.PartialRecomputes.Add(1)
		}
		c.stats.PartialRecomputes++
	}
	for _, nv := range c.newVerts {
		if r, ok := c.m.VertexRecord(nv); ok && c.ownsKey(c.spec.SolutionKey(r)) {
			c.sol.Update(r)
		}
	}
	return nil, nil
}

// fold makes the plan's cached edge table reflect the current graph
// (overlay and removals included). Normally it patches: the net change
// since the table last matched gs is edited into each hosted cached table
// in place, so plan, edge IDs, digest, session and caches all survive and
// no edge record is re-shipped. When the edge count has drifted 4x from
// what the plan was costed with, the session re-plans instead; a plan the
// runtime will not patch (its caches are not filled yet) is refilled.
//
// Invariant: every path that refills the edge caches — rebind, recompute
// and refill — first re-derives the spec from gs, because after a patch
// the plan's Source data no longer describes the table.
func (c *shardCore) fold() error {
	c.stats.Folds++
	if c.drifted() {
		spec, _, _ := c.m.Spec(c.gs)
		return c.rebind(spec)
	}
	if len(c.sources) == 1 {
		add, remove := c.foldDelta()
		if c.fx.PatchConstants(c.sources[0], add, remove) {
			c.overlay, c.edits = c.overlay[:0], c.edits[:0]
			return nil
		}
	}
	return c.refill()
}

// drifted reports whether the edge count has moved 4x either way from
// what the plan was costed with.
func (c *shardCore) drifted() bool {
	edges := c.gs.NumEdges()
	return edges > 4*c.planEdges || (edges > 0 && c.planEdges > 4*edges)
}

// foldDelta nets the edit log into the change of the cached edge table.
// For every vertex pair the log touches, the table holds the maintainer's
// records over the pair's edges as they were when it last matched gs —
// each orientation's first edit saw that state; an orientation never
// edited is as it is now — and must come to hold the records over the
// pair's edges now. So an edge inserted and deleted between folds nets
// out, and deleting one orientation of a reciprocal pair changes nothing.
func (c *shardCore) foldDelta() (add, remove []record.Record) {
	// Group the log by pair, in first-touch order, keeping each
	// orientation's first edit: [0] is lo→hi, [1] hi→lo.
	type pairEdits struct {
		ends  [2]int64
		first [2]*edgeEdit
	}
	at := make(map[[2]int64]int, len(c.edits))
	var pairs []pairEdits
	for i := range c.edits {
		e := &c.edits[i]
		ends, dir := [2]int64{e.src, e.dst}, 0
		if e.src > e.dst {
			ends, dir = [2]int64{e.dst, e.src}, 1
		}
		k, ok := at[ends]
		if !ok {
			k = len(pairs)
			at[ends] = k
			pairs = append(pairs, pairEdits{ends: ends})
		}
		if pairs[k].first[dir] == nil {
			pairs[k].first[dir] = e
		}
	}
	var was, now []WEdge
	var before, after []record.Record
	for _, p := range pairs {
		was, now = was[:0], now[:0]
		for dir, e := range [2]WEdge{{Src: p.ends[0], Dst: p.ends[1]}, {Src: p.ends[1], Dst: p.ends[0]}} {
			w, ok := c.gs.EdgeWeight(e.Src, e.Dst)
			if ok {
				now = append(now, WEdge{e.Src, e.Dst, w})
			}
			if f := p.first[dir]; f != nil {
				w, ok = f.w, f.had
			}
			if ok {
				was = append(was, WEdge{e.Src, e.Dst, w})
			}
		}
		before = c.m.PairRecords(before[:0], was)
		after = c.m.PairRecords(after[:0], now)
		for _, r := range before {
			if !slices.Contains(after, r) {
				remove = append(remove, r)
			}
		}
		for _, r := range after {
			if !slices.Contains(before, r) {
				add = append(add, r)
			}
		}
	}
	return add, remove
}

// refill is fold's fallback: the spec is re-derived only to harvest fresh
// source data, which is copied into the live plan in place — plan, edge
// IDs and digest unchanged — and InvalidateConstants makes the next
// superstep re-materialize the edge caches from it.
func (c *shardCore) refill() error {
	spec, _, _ := c.m.Spec(c.gs)
	fresh := sourcesOf(spec)
	if len(fresh) != len(c.sources) {
		return fmt.Errorf("live: maintainer %s produced %d sources, plan has %d",
			c.m.Name(), len(fresh), len(c.sources))
	}
	for i, n := range c.sources {
		n.Data = fresh[i].Data
	}
	c.fx.InvalidateConstants()
	c.overlay, c.edits = c.overlay[:0], c.edits[:0]
	return nil
}

// recompute is the last resort: re-plan over the current graph and restart
// from S0/W0 — still inside the resident session, so workers, the mesh and
// the solution set's capacity survive.
func (c *shardCore) recompute() ([]record.Record, error) {
	spec, s0, w0 := c.m.Spec(c.gs)
	if c.mtr != nil {
		c.mtr.FullRecomputes.Add(1)
	}
	c.stats.FullRecomputes++
	if err := c.rebind(spec); err != nil {
		return nil, err
	}
	return c.cold(s0, w0), nil
}

// hostedReader is the maintainer's solution access during candidate
// derivation: lookups hit only partitions this host owns. Non-hosted
// partitions hold stale replicas — and a stale label can mask a
// propagation the fixpoint still needs — so misses are reported as absent
// and the maintainer's fallback produces a sound upper-bound candidate
// (CC: a vertex proposes its own id; SSSP: no candidate). The owning host
// emits the exact candidate for the same edge, and the merged workset
// contains both; ∪̇ keeps whichever improves. Region resets are
// force-stored before any candidate is derived, so lookups see
// re-initialized labels, never retracted ones.
type hostedReader struct{ c *shardCore }

func (r hostedReader) Lookup(k int64) (record.Record, bool) { return r.c.lookup(k) }

// gather derives this host's candidates: round 0 covers the region seeds
// and the current batch's inserts, later rounds re-examine the whole
// overlay (the converged solution may have moved, re-arming older overlay
// edges) — at most overlayFoldFactor × the batch's inserts, as settle
// leaves it. Two source-side filters keep dead weight off the wire:
//
//   - A candidate keyed on one endpoint was derived from the *other*
//     endpoint's label; only that label's owner emits it. The owner's
//     exact candidate dominates any non-owner fallback under ∪̇ (CC
//     labels only decrease from the self-id a fallback proposes; SSSP
//     fallbacks emit nothing), so non-owner emissions are dropped.
//   - When this host also owns the candidate's own key it can run the
//     improvement check right here; a non-improving candidate is a ∪̇
//     no-op in superstep 1, so it never ships. Remote-keyed candidates
//     still ship unfiltered — only the key's owner can judge them.
func (c *shardCore) gather(round int) []record.Record {
	var out []record.Record
	edges := c.overlay
	if round == 0 {
		edges = c.fresh
		for _, r := range c.seeds {
			if c.improves(r) {
				out = append(out, r)
			}
		}
		c.seeds = nil
	} else {
		c.stats.CandidateEdges += int64(len(edges))
	}
	reader := hostedReader{c: c}
	for _, e := range edges {
		ownsSrc, ownsDst := c.ownsKey(e.Src), c.ownsKey(e.Dst)
		if !ownsSrc && !ownsDst {
			continue
		}
		for _, r := range c.m.InsertDelta(e.Src, e.Dst, e.Weight, reader) {
			k := c.spec.SolutionKey(r)
			if (k == e.Dst && !ownsSrc) || (k == e.Src && !ownsDst) {
				continue // the other endpoint's owner emits the exact one
			}
			if c.ownsKey(k) {
				if !c.improves(r) {
					continue
				}
			} else if init, ok := c.m.VertexRecord(k); ok && c.spec.Comparator != nil &&
				c.spec.Comparator(r, init) <= 0 {
				// The monotone path only ever advances a label from its
				// initial vertex record; a candidate that does not beat
				// even that can never beat the owner's current label.
				continue
			}
			out = append(out, r)
		}
	}
	return out
}

// gatherRound runs one round's gather verb: own-keyed candidates stay
// here in pending, the rest come back split by owning host.
func (c *shardCore) gatherRound(round int) [][]record.Record {
	shares := c.splitByHost(c.gather(round))
	c.pending, shares[c.host] = shares[c.host], nil
	return shares
}

// seedRound runs one round's seed verb: the candidates routed here are
// kept only if they still advance the solution (the ones this host can
// judge — the comparator-based no-op check that detects convergence; the
// retained ones passed it at gather), join the retained ones, and collapse
// to the best per key. improving counts the judged survivors; the global
// sum across hosts is exact (every key has one owner), and zero means the
// solution is already a fixpoint over the candidates.
func (c *shardCore) seedRound(routed []record.Record) (workset []record.Record, improving int) {
	ws := routed[:0]
	for _, r := range routed {
		if !c.ownsKey(c.spec.SolutionKey(r)) || c.improves(r) {
			ws = append(ws, r)
		}
	}
	workset = c.collapseCandidates(append(ws, c.pending...))
	c.pending = nil
	for _, r := range workset {
		if c.ownsKey(c.spec.SolutionKey(r)) {
			improving++
		}
	}
	return workset, improving
}

// ownsKey reports whether this host hosts the solution partition of k.
func (c *shardCore) ownsKey(k int64) bool {
	return c.place[c.sol.PartitionFor(k)] == c.host
}

// improves reports whether r would advance the current solution entry
// for its key (callers ensure the key's partition is hosted here).
func (c *shardCore) improves(r record.Record) bool {
	k := c.spec.SolutionKey(r)
	old, ok := c.sol.Lookup(c.sol.PartitionFor(k), k)
	if !ok {
		return true
	}
	if c.spec.Comparator != nil {
		return c.spec.Comparator(r, old) > 0
	}
	return !old.Equal(r)
}

// collapseCandidates canonicalizes the merged candidate workset: sorted
// by solution key, and collapsed to the single best candidate per key.
// Owners emit exact candidates and non-owners emit sound fallbacks for
// the same edges, so the raw merge carries duplicates ∪̇ would discard in
// the first superstep anyway — collapsing them here keeps the dead
// weight out of the seed scans.
func (c *shardCore) collapseCandidates(ws []record.Record) []record.Record {
	key := c.spec.SolutionKey
	slices.SortFunc(ws, func(a, b record.Record) int {
		switch ka, kb := key(a), key(b); {
		case ka != kb:
			return cmp.Compare(ka, kb)
		case record.Less(a, b):
			return -1
		case record.Less(b, a):
			return 1
		}
		return 0
	})
	better := c.spec.Comparator
	if better == nil {
		// Without an improvement order there is no "best": keep every
		// distinct candidate and let ∪̇ arbitrate.
		return ws
	}
	out := ws[:0]
	for _, r := range ws {
		if len(out) > 0 && key(out[len(out)-1]) == key(r) {
			if better(r, out[len(out)-1]) > 0 {
				out[len(out)-1] = r
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// splitByHost routes a candidate workset to the hosts that will read it:
// each record goes to the owner of its solution partition (the improving
// check) and, if different, the owner of its workset partition (the
// engine's seed). For the built-in maintainers both keys are the vertex
// id, so every record lands on exactly one host.
func (c *shardCore) splitByHost(ws []record.Record) [][]record.Record {
	out := make([][]record.Record, c.cfg.Hosts)
	for _, r := range ws {
		hs := c.place[c.sol.PartitionFor(c.spec.SolutionKey(r))]
		out[hs] = append(out[hs], r)
		if hw := c.place[record.PartitionOf(c.spec.WorksetKey(r), c.cfg.Parallelism)]; hw != hs {
			out[hw] = append(out[hw], r)
		}
	}
	return out
}

// lookup probes a hosted partition (callers route by placement).
func (c *shardCore) lookup(k int64) (record.Record, bool) {
	p := c.sol.PartitionFor(k)
	if c.place[p] != c.host {
		return record.Record{}, false
	}
	return c.sol.Lookup(p, k)
}

// collect serializes the hosted partitions in ascending partition order,
// records sorted canonically within each.
func (c *shardCore) collect() []byte {
	var out []record.Record
	for _, p := range c.hosted {
		from := len(out)
		c.sol.EachPartition(p, func(r record.Record) {
			out = append(out, r)
		})
		part := out[from:]
		sort.Slice(part, func(x, y int) bool { return record.Less(part[x], part[y]) })
	}
	return packRecords(out)
}

// eachHosted visits the records in this host's partitions, in ascending
// partition order. It fails if a spilled partition could not be read back.
func (c *shardCore) eachHosted(f func(record.Record)) error {
	for _, p := range c.hosted {
		c.sol.EachPartition(p, f)
	}
	return c.sol.Err()
}

// hostedRecords counts the records in this host's partitions.
func (c *shardCore) hostedRecords() int {
	if len(c.hosted) == len(c.place) {
		return c.sol.Size()
	}
	n := 0
	c.eachHosted(func(record.Record) { n++ })
	return n
}

// close tears the session down: fixpoint, transport, solution state.
func (c *shardCore) close() {
	if c.fx != nil {
		c.fx.Close()
	}
	if c.tr != nil {
		c.tr.Close()
	}
	c.sol.Reset()
}
