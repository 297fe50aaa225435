package difftest

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/record"
)

// The sharded-serving differential: a LiveView spread over a real worker
// process boundary (in-process listener, but the full control + data
// protocol) must stay byte-identical to a single-process LiveView — and
// to the from-scratch oracles — under the same random insert/delete
// stream, taking the same maintenance decisions (the recompute counters
// must agree). This exercises the distributed monotone candidate rounds,
// the region-merging bounded recompute and the coordinated full recompute
// on deletions, the digest checks, and the scatter-gather snapshot, on
// two and three hosts and for both algorithms.

// startViewWorkers launches n in-process `spinflow worker` equivalents
// hosting view sessions, returning their control addresses.
func startViewWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: live.NewWorkerHost(nil)})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// assertSnapshotsIdentical requires the two converged solutions to be
// byte-identical after canonical sorting.
func assertSnapshotsIdentical(t *testing.T, ctx string, sharded, single []record.Record) {
	t.Helper()
	sortRecords(single)
	sortRecords(sharded)
	if len(sharded) != len(single) {
		t.Fatalf("%s: sharded %d records, single-process %d", ctx, len(sharded), len(single))
	}
	for i := range sharded {
		if !sharded[i].Equal(single[i]) {
			t.Fatalf("%s: record %d: sharded %+v, single-process %+v", ctx, i, sharded[i], single[i])
		}
	}
}

func sortRecords(recs []record.Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && record.Less(recs[j], recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

func shardViewConfig(workers []string) live.ViewConfig {
	return live.ViewConfig{Config: iterative.Config{Parallelism: 4}, Workers: workers}
}

// ssspOracle is Dijkstra over the live graph state.
func ssspOracle(gs *live.GraphState, source int64) map[int64]float64 {
	return SSSPReference(gs.WeightedUndirected(), source)
}

func TestLiveShardedStreamCC(t *testing.T) {
	g := diffGraphs()[1] // many components: deletions stay under the recompute cutoff
	half := len(g.Edges) / 2
	initial := make([]live.Mutation, half)
	for i, e := range g.Edges[:half] {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	// On three hosts, regions merge from more than one remote share.
	for _, hosts := range []int{2, 3} {
		t.Run(fmt.Sprintf("hosts%d", hosts), func(t *testing.T) {
			workers := startViewWorkers(t, hosts-1)
			sharded, err := live.NewView("shard-cc", live.CC(), initial, shardViewConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			single, err := live.NewView("local-cc", live.CC(), initial, shardViewConfig(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()

			model := live.NewGraphState()
			replay := live.NewGraphState()
			for _, mu := range initial {
				model.Apply(mu)
				replay.Apply(mu)
			}
			rng := &streamRNG{s: 0x5AA5 ^ uint64(len(g.Edges))}
			stream := mutationStream(g, rng, 12, 3, model, g.Edges[half:])
			for bi, batch := range stream {
				for _, mu := range batch {
					replay.Apply(mu)
				}
				for _, v := range []*live.LiveView{sharded, single} {
					if err := v.Mutate(batch...); err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					if err := v.Flush(); err != nil {
						t.Fatalf("batch %d flush: %v", bi, err)
					}
				}
				ctx := fmt.Sprintf("batch %d", bi)
				snap := sharded.Snapshot()
				assertSnapshotsIdentical(t, ctx, snap, single.Snapshot())
				oracle := CCOf(replay.Vertices(), replay.UndirectedRecords())
				if len(snap) != len(oracle) {
					t.Fatalf("%s: %d records, oracle %d", ctx, len(snap), len(oracle))
				}
				for _, r := range snap {
					if oracle[r.A] != r.B {
						t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, r.A, r.B, oracle[r.A])
					}
				}
				// Point queries route across the host boundary.
				for _, vid := range replay.Vertices()[:min(5, replay.NumVertices())] {
					r, ok := sharded.Query(vid)
					if !ok || r.B != oracle[vid] {
						t.Fatalf("%s: query(%d) = (%+v, %v), oracle %d", ctx, vid, r, ok, oracle[vid])
					}
				}
			}
			// Both hosts must actually hold records.
			ss, ls := sharded.Stats(), single.Stats()
			for _, st := range ss.Shards {
				if st.Records == 0 {
					t.Fatalf("host %d serves no records: %+v", st.Host, ss.Shards)
				}
			}
			// One algorithm: deletions take the bounded path on two hosts
			// exactly when they do on one.
			if ss.PartialRecomputes == 0 {
				t.Fatal("sharded view never took the bounded-recompute path")
			}
			if ss.PartialRecomputes != ls.PartialRecomputes || ss.FullRecomputes != ls.FullRecomputes {
				t.Fatalf("recomputes partial/full: sharded %d/%d, single-process %d/%d",
					ss.PartialRecomputes, ss.FullRecomputes, ls.PartialRecomputes, ls.FullRecomputes)
			}
		})
	}
}

func TestLiveShardedStreamSSSP(t *testing.T) {
	const source = 0
	g := diffGraphs()[1]
	half := len(g.Edges) / 2
	initial := make([]live.Mutation, half)
	for i, e := range g.Edges[:half] {
		initial[i] = live.InsertWeightedEdge(e.Src, e.Dst, diffWeight(e.Src, e.Dst))
	}
	workers := startViewWorkers(t, 1)
	sharded, err := live.NewView("shard-sssp", live.SSSP(source), initial, shardViewConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	single, err := live.NewView("local-sssp", live.SSSP(source), initial, shardViewConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	model := live.NewGraphState()
	replay := live.NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
		replay.Apply(mu)
	}
	rng := &streamRNG{s: 0xD157 ^ uint64(len(g.Edges))<<2}
	stream := mutationStream(g, rng, 4, 5, model, g.Edges[half:])
	// Two batches the random draw may miss: a re-weight of a live
	// edge and a vertex drop. Neither is monotone and SSSP cannot
	// bound either, so each is one full recompute on both views.
	var edges []live.WEdge
	for _, v := range model.Vertices() {
		edges = append(edges, model.IncidentEdges(v)...)
	}
	rw, drop := edges[0], edges[len(edges)-1].Dst
	if drop == source {
		drop = edges[len(edges)-1].Src
	}
	forced := len(stream)
	stream = append(stream,
		[]live.Mutation{live.InsertWeightedEdge(rw.Src, rw.Dst, diffWeight(rw.Src, rw.Dst)+1)},
		[]live.Mutation{{Op: live.OpDeleteVertex, Src: drop}})
	for bi, batch := range stream {
		clean := batch[:0:0]
		for _, mu := range batch {
			if mu.Op == live.OpDeleteVertex && mu.Src == source {
				continue
			}
			clean = append(clean, mu)
		}
		for _, mu := range clean {
			replay.Apply(mu)
		}
		for vi, v := range []*live.LiveView{sharded, single} {
			before := v.Stats().FullRecomputes
			if err := v.Mutate(clean...); err != nil {
				t.Fatalf("batch %d: %v", bi, err)
			}
			if err := v.Flush(); err != nil {
				t.Fatalf("batch %d flush: %v", bi, err)
			}
			if st := v.Stats(); bi >= forced && st.FullRecomputes != before+1 {
				t.Fatalf("batch %d on %s: FullRecomputes %d -> %d, want one full recompute",
					bi, []string{"sharded", "single"}[vi], before, st.FullRecomputes)
			}
		}
		ctx := fmt.Sprintf("batch %d", bi)
		snap := sharded.Snapshot()
		assertSnapshotsIdentical(t, ctx, snap, single.Snapshot())
		oracle := ssspOracle(replay, source)
		if len(snap) != len(oracle) {
			t.Fatalf("%s: reached %d, oracle %d", ctx, len(snap), len(oracle))
		}
		for _, r := range snap {
			if oracle[r.A] != r.X {
				t.Fatalf("%s: dist(%d) = %v, oracle %v", ctx, r.A, r.X, oracle[r.A])
			}
		}
	}
	ss, ls := sharded.Stats(), single.Stats()
	if ss.PartialRecomputes != 0 || ls.PartialRecomputes != 0 || ss.FullRecomputes != ls.FullRecomputes {
		t.Fatalf("recomputes partial/full: sharded %d/%d, single-process %d/%d (SSSP never bounds a removal)",
			ss.PartialRecomputes, ss.FullRecomputes, ls.PartialRecomputes, ls.FullRecomputes)
	}
}

// TestLiveShardedFoldCrossing streams insert batches of over an eighth of
// the graph between delete batches, so the folds the deletes force patch
// the cached edge tables with net changes gathered over several batches —
// pairs inserted, deleted, re-inserted, and dropped with their vertices —
// on 1, 2 and 3 hosts. After every batch each topology's
// solution must match the oracle and the one-host view byte for byte, and
// the maintenance decisions (bounded and full recomputes, re-plans) must
// be the one-host view's. The inserts merge most of the graph into one
// component, so 30 far 4-vertex rings the inserts never reach hold more
// than half the solution set: they keep that component's deletes under
// the recompute cutoff.
func TestLiveShardedFoldCrossing(t *testing.T) {
	g := diffGraphs()[1]
	half := len(g.Edges) / 2
	initial := make([]live.Mutation, half)
	for i, e := range g.Edges[:half] {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	for c := int64(0); c < 30; c++ {
		at := 1000 + 8*c
		for i := int64(0); i < 4; i++ {
			initial = append(initial, live.InsertEdge(at+i, at+(i+1)%4))
		}
	}
	model := live.NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	rng := &streamRNG{s: 0xF01D}
	var stream [][]live.Mutation
	for b := 0; b < 10; b++ {
		var batch []live.Mutation
		if b%2 == 0 {
			n := int(g.NumVertices) + 8
			for len(batch) <= model.NumEdges()/8 {
				if s, d := int64(rng.intn(n)), int64(rng.intn(n)); s != d {
					batch = append(batch, live.InsertEdge(s, d))
				}
			}
		} else {
			for i := 0; i < 4; i++ {
				vs := model.Vertices()
				v := vs[rng.intn(len(vs))]
				if i == 3 {
					batch = append(batch, live.Mutation{Op: live.OpDeleteVertex, Src: v})
				} else if inc := model.IncidentEdges(v); len(inc) > 0 {
					e := inc[rng.intn(len(inc))]
					batch = append(batch, live.DeleteEdge(e.Src, e.Dst))
				}
			}
		}
		for _, mu := range batch {
			model.Apply(mu)
		}
		stream = append(stream, batch)
	}

	workers := startViewWorkers(t, 2)
	var want [][]record.Record
	var wantStats live.ViewStats
	for hosts := 1; hosts <= 3; hosts++ {
		cfg := shardViewConfig(workers[:hosts-1])
		v, err := live.NewView(fmt.Sprintf("fold-%d", hosts), live.CC(), initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replay := live.NewGraphState()
		for _, mu := range initial {
			replay.Apply(mu)
		}
		for bi, batch := range stream {
			for _, mu := range batch {
				replay.Apply(mu)
			}
			if err := v.Mutate(batch...); err != nil {
				t.Fatalf("%d hosts batch %d: %v", hosts, bi, err)
			}
			if err := v.Flush(); err != nil {
				t.Fatalf("%d hosts batch %d flush: %v", hosts, bi, err)
			}
			ctx := fmt.Sprintf("%d hosts batch %d", hosts, bi)
			snap := v.Snapshot()
			oracle := CCOf(replay.Vertices(), replay.UndirectedRecords())
			if len(snap) != len(oracle) {
				t.Fatalf("%s: %d records, oracle %d", ctx, len(snap), len(oracle))
			}
			for _, r := range snap {
				if oracle[r.A] != r.B {
					t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, r.A, r.B, oracle[r.A])
				}
			}
			if hosts == 1 {
				want = append(want, snap)
			} else {
				assertSnapshotsIdentical(t, ctx, snap, want[bi])
			}
		}
		st := v.Stats()
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if hosts == 1 {
			wantStats = st
			if st.PartialRecomputes == 0 {
				t.Fatal("no delete batch took the bounded recompute")
			}
			continue
		}
		if st.PartialRecomputes != wantStats.PartialRecomputes || st.FullRecomputes != wantStats.FullRecomputes ||
			st.Rebinds != wantStats.Rebinds {
			t.Fatalf("%d hosts: partial/full recomputes %d/%d, rebinds %d; one host %d/%d, %d", hosts,
				st.PartialRecomputes, st.FullRecomputes, st.Rebinds,
				wantStats.PartialRecomputes, wantStats.FullRecomputes, wantStats.Rebinds)
		}
	}
}

// TestLiveShardedInsertFlushFolds runs one insert-only stream of uneven
// batches — some to new vertices, many merging components across older
// overlay edges — on 1, 2 and 3 hosts. No batch removes anything, so every
// fold is the overlay outgrowing its bound by the batch, or the graph
// outgrowing its plan 4x (a re-plan); both decisions read only the graph
// replica, so every topology must fold and re-plan exactly as often as the
// one-host view, and its solution must match it byte for byte after every
// batch.
func TestLiveShardedInsertFlushFolds(t *testing.T) {
	g := diffGraphs()[1]
	half := len(g.Edges) / 2
	initial := make([]live.Mutation, half)
	for i, e := range g.Edges[:half] {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	rng := &streamRNG{s: 0x1F05}
	n := int(g.NumVertices) + 24
	stream := make([][]live.Mutation, 40)
	for b := range stream {
		for len(stream[b]) < 1+rng.intn(12) {
			if s, d := int64(rng.intn(n)), int64(rng.intn(n)); s != d {
				stream[b] = append(stream[b], live.InsertEdge(s, d))
			}
		}
	}

	workers := startViewWorkers(t, 2)
	var want [][]record.Record
	var wantStats live.ViewStats
	for hosts := 1; hosts <= 3; hosts++ {
		v, err := live.NewView(fmt.Sprintf("grow-%d", hosts), live.CC(), initial,
			shardViewConfig(workers[:hosts-1]))
		if err != nil {
			t.Fatal(err)
		}
		replay := live.NewGraphState()
		for _, mu := range initial {
			replay.Apply(mu)
		}
		for bi, batch := range stream {
			for _, mu := range batch {
				replay.Apply(mu)
			}
			if err := v.Mutate(batch...); err != nil {
				t.Fatalf("%d hosts batch %d: %v", hosts, bi, err)
			}
			if err := v.Flush(); err != nil {
				t.Fatalf("%d hosts batch %d flush: %v", hosts, bi, err)
			}
			ctx := fmt.Sprintf("%d hosts batch %d", hosts, bi)
			snap := v.Snapshot()
			oracle := CCOf(replay.Vertices(), replay.UndirectedRecords())
			if len(snap) != len(oracle) {
				t.Fatalf("%s: %d records, oracle %d", ctx, len(snap), len(oracle))
			}
			for _, r := range snap {
				if oracle[r.A] != r.B {
					t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, r.A, r.B, oracle[r.A])
				}
			}
			if hosts == 1 {
				want = append(want, snap)
			} else {
				assertByteIdentical(t, ctx, snap, want[bi])
			}
		}
		st := v.Stats()
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if st.PartialRecomputes+st.FullRecomputes != 0 {
			t.Fatalf("%d hosts: an insert-only stream recomputed: %+v", hosts, st)
		}
		if hosts == 1 {
			if wantStats = st; st.Folds <= st.Rebinds {
				t.Fatalf("no fold was a patch: %d folds, %d re-plans", st.Folds, st.Rebinds)
			}
		} else if st.Folds != wantStats.Folds || st.Rebinds != wantStats.Rebinds {
			t.Fatalf("%d hosts: %d folds, %d re-plans; one host %d, %d",
				hosts, st.Folds, st.Rebinds, wantStats.Folds, wantStats.Rebinds)
		}
	}
}

// TestLiveShardedKillRecover crashes a durable sharded view mid-life and
// recovers it onto the same (still running) workers: the snapshot, which
// holds every host's partitions, plus the WAL tail must reassemble the
// exact state, and maintenance must continue across the recovery.
func TestLiveShardedKillRecover(t *testing.T) {
	g := diffGraphs()[2]
	half := len(g.Edges) / 2
	initial := make([]live.Mutation, half)
	for i, e := range g.Edges[:half] {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	workers := startViewWorkers(t, 1)
	dir := t.TempDir()
	cfg := shardViewConfig(workers)
	cfg.Durable = true
	cfg.DataDir = dir

	v, err := live.NewView("shard-recover", live.CC(), initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := live.NewGraphState()
	model := live.NewGraphState()
	for _, mu := range initial {
		replay.Apply(mu)
		model.Apply(mu)
	}
	rng := &streamRNG{s: 0xBADC0DE}
	stream := mutationStream(g, rng, 6, 5, model, g.Edges[half:])
	for bi, batch := range stream[:4] {
		for _, mu := range batch {
			replay.Apply(mu)
		}
		if err := v.Mutate(batch...); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if err := v.Flush(); err != nil {
			t.Fatalf("batch %d flush: %v", bi, err)
		}
		if bi%2 == 1 { // a snapshot every second flush
			if err := v.Checkpoint(); err != nil {
				t.Fatalf("batch %d checkpoint: %v", bi, err)
			}
		}
	}
	v.Kill() // crash: no final snapshot, workers keep running

	v2, err := live.NewView("shard-recover", live.CC(), nil, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer v2.Close()
	check := func(ctx string) {
		t.Helper()
		oracle := CCOf(replay.Vertices(), replay.UndirectedRecords())
		snap := v2.Snapshot()
		if len(snap) != len(oracle) {
			t.Fatalf("%s: %d records, oracle %d", ctx, len(snap), len(oracle))
		}
		for _, r := range snap {
			if oracle[r.A] != r.B {
				t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, r.A, r.B, oracle[r.A])
			}
		}
	}
	check("after recovery")
	for bi, batch := range stream[4:] {
		for _, mu := range batch {
			replay.Apply(mu)
		}
		if err := v2.Mutate(batch...); err != nil {
			t.Fatalf("post-recovery batch %d: %v", bi, err)
		}
		if err := v2.Flush(); err != nil {
			t.Fatalf("post-recovery batch %d flush: %v", bi, err)
		}
	}
	check("after post-recovery maintenance")
}

// TestRecoveryAcrossTopologies is the topology-change differential:
// recovery streams a snapshot into whatever session the recovering
// config opens, so the host count a directory was written with must not
// matter to the host count it is read with. Every cell of hosts-at-write ×
// hosts-at-recover over {1, 2, 3}², for CC and SSSP, kills a durable view
// after a mixed insert/delete stream (a snapshot behind it, flushed
// and unflushed frames in the log), recovers it, and requires the
// recovered Snapshot() to be byte-identical to the oracle and to the
// same-topology recovery — and the recovered view to keep converging on
// the rest of the stream. One cell recovers out of core, under a solution
// budget far below the solution.
func TestRecoveryAcrossTopologies(t *testing.T) {
	const source, killAt = 0, 5
	g := diffGraphs()[1]
	half := len(g.Edges) / 2
	workers := startViewWorkers(t, 2)
	algos := []struct {
		name string
		mk   func() live.Maintainer
	}{
		{"cc", live.CC},
		{"sssp", func() live.Maintainer { return live.SSSP(source) }},
	}
	for ai, algo := range algos {
		initial := make([]live.Mutation, half)
		for i, e := range g.Edges[:half] {
			initial[i] = live.InsertWeightedEdge(e.Src, e.Dst, diffWeight(e.Src, e.Dst))
		}
		model := live.NewGraphState()
		for _, mu := range initial {
			model.Apply(mu)
		}
		rng := &streamRNG{s: 0x70B0 ^ uint64(ai)<<8}
		stream := mutationStream(g, rng, 9, 4, model, g.Edges[half:])
		for bi, batch := range stream { // the SSSP view pins its source vertex
			clean := batch[:0:0]
			for _, mu := range batch {
				if mu.Op != live.OpDeleteVertex || mu.Src != source {
					clean = append(clean, mu)
				}
			}
			stream[bi] = clean
		}

		// The oracle never crashes: its state after the acknowledged prefix
		// and after the whole stream is what every cell must reproduce.
		oracle, err := live.NewView("oracle", algo.mk(), initial, shardViewConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		absorb := func(v *live.LiveView, batches [][]live.Mutation) {
			t.Helper()
			for bi, batch := range batches {
				if err := v.Mutate(batch...); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				if err := v.Flush(); err != nil {
					t.Fatalf("batch %d flush: %v", bi, err)
				}
			}
		}
		absorb(oracle, stream[:killAt])
		wantRecovered := oracle.Snapshot()
		absorb(oracle, stream[killAt:])
		wantFinal := oracle.Snapshot()
		oracle.Close()

		for hw := 1; hw <= 3; hw++ {
			var sameTopology []record.Record
			// The same-topology cell runs first: it is the row's reference.
			for _, hr := range []int{hw, hw%3 + 1, (hw+1)%3 + 1} {
				spill := algo.name == "cc" && hw == 2 && hr == 3
				t.Run(fmt.Sprintf("%s/write%d-recover%d", algo.name, hw, hr), func(t *testing.T) {
					cfg := shardViewConfig(workers[:hw-1])
					cfg.Durable, cfg.DataDir = true, t.TempDir()
					cfg.BatchSize = 1 << 30
					v, err := live.NewView("topo", algo.mk(), initial, cfg)
					if err != nil {
						t.Fatal(err)
					}
					absorb(v, stream[:killAt-1])
					if err := v.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := v.Mutate(stream[killAt-1]...); err != nil { // acknowledged, never flushed
						t.Fatal(err)
					}
					v.Kill()

					var m metrics.Counters
					cfg.Workers = workers[:hr-1]
					if spill {
						cfg.Metrics = &m
						cfg.SolutionMemoryBudget = int64(len(wantRecovered)) * record.EncodedSize / 8
					}
					v2, err := live.NewView("topo", algo.mk(), nil, cfg)
					if err != nil {
						t.Fatalf("recovery: %v", err)
					}
					defer v2.Close()
					got := v2.Snapshot()
					assertByteIdentical(t, "recovered vs oracle", got, wantRecovered)
					if hr == hw {
						sameTopology = got
					}
					assertByteIdentical(t, "recovered vs same-topology recovery", got, sameTopology)
					if st := v2.Stats(); st.RecoveredFrames == 0 || (hr > 1) != (len(st.Shards) == hr) {
						t.Fatalf("recovered on %d hosts with %d replayed frames, shards %+v", hr, st.RecoveredFrames, st.Shards)
					}
					if spill && m.SolutionSpills.Load() == 0 {
						t.Fatalf("out-of-core recovery under a %d-byte budget never spilled", cfg.SolutionMemoryBudget)
					}
					absorb(v2, stream[killAt:])
					assertByteIdentical(t, "post-recovery maintenance", v2.Snapshot(), wantFinal)
				})
			}
		}
	}
}
