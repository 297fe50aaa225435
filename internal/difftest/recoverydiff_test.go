package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/record"
)

// The crash-recovery differential: a durable LiveView absorbing a random
// insert/delete stream is hard-killed at a random batch boundary (no
// flush, no final snapshot — exactly what SIGKILL leaves behind) and
// reopened. The recovered solution set must be byte-identical to an
// oracle view that saw every *acknowledged* batch — mutations accepted
// by Mutate before the kill — because acknowledgment is the WAL's
// durability promise. Runs across every solution backend and
// parallelism, for Connected Components and SSSP, so snapshot loading,
// WAL replay through the maintenance path, and their interleaving with
// periodic snapshots are all differentially checked.

// sortedRecords returns a snapshot in canonical order for byte-level
// comparison.
func sortedRecords(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

func assertByteIdentical(t *testing.T, ctx string, got, want []record.Record) {
	t.Helper()
	got, want = sortedRecords(got), sortedRecords(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, oracle has %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: record %d: recovered %v, oracle %v", ctx, i, got[i], want[i])
		}
	}
}

// runCrashRecovery drives one configuration: apply batches 0..kill to a
// durable view (flushing pseudo-randomly), hard-kill it, recover, and
// compare against an in-memory oracle view that replays the same
// acknowledged batches.
func runCrashRecovery(t *testing.T, name string, mk func() live.Maintainer,
	initial []live.Mutation, stream [][]live.Mutation, cfg live.ViewConfig, rng *streamRNG) {
	t.Helper()
	dataDir := t.TempDir()

	dcfg := cfg
	dcfg.Durable = true
	dcfg.DataDir = dataDir
	dcfg.BatchSize = 1 << 30 // flushes and snapshots happen only where this test says

	v, err := live.OpenView(name, mk(), initial, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	kill := rng.intn(len(stream))
	var acked [][]live.Mutation
	for bi, flushes := 0, 0; bi <= kill; bi++ {
		if err := v.Mutate(stream[bi]...); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		acked = append(acked, stream[bi])
		if rng.intn(2) == 0 {
			if err := v.Flush(); err != nil {
				t.Fatalf("batch %d flush: %v", bi, err)
			}
			if flushes++; flushes%2 == 0 { // a snapshot every second flush
				if err := v.Checkpoint(); err != nil {
					t.Fatalf("batch %d checkpoint: %v", bi, err)
				}
			}
		}
	}
	v.Kill()

	recovered, err := live.OpenView(name, mk(), nil, dcfg)
	if err != nil {
		t.Fatalf("recovery after kill at batch %d: %v", kill, err)
	}
	defer recovered.Close()

	oracle, err := live.NewView(name+"-oracle", mk(), initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for bi, batch := range acked {
		if err := oracle.Mutate(batch...); err != nil {
			t.Fatalf("oracle batch %d: %v", bi, err)
		}
		if err := oracle.Flush(); err != nil {
			t.Fatalf("oracle batch %d flush: %v", bi, err)
		}
	}

	assertByteIdentical(t, fmt.Sprintf("%s kill@%d", name, kill),
		recovered.Snapshot(), oracle.Snapshot())
}

func TestCrashRecoveryCC(t *testing.T) {
	for _, g := range diffGraphs()[:2] {
		half := len(g.Edges) / 2
		initial := make([]live.Mutation, half)
		for i, e := range g.Edges[:half] {
			initial[i] = live.InsertEdge(e.Src, e.Dst)
		}
		for _, par := range parallelisms {
			for _, bk := range backends {
				name := fmt.Sprintf("cc-%s-p%d-%s", g.Name, par, bk.name)
				t.Run(name, func(t *testing.T) {
					model := live.NewGraphState()
					for _, mu := range initial {
						model.Apply(mu)
					}
					rng := &streamRNG{s: 0xCAFE ^ uint64(par)<<12 ^ uint64(len(g.Edges))}
					stream := mutationStream(g, rng, 6, 6, model, g.Edges[half:])
					cfg := live.ViewConfig{Config: bk.cfg(iterative.Config{Parallelism: par})}
					runCrashRecovery(t, name, live.CC, initial, stream, cfg, rng)
				})
			}
		}
	}
}

func TestCrashRecoverySSSP(t *testing.T) {
	const source = 0
	for _, g := range diffGraphs()[:2] {
		half := len(g.Edges) / 2
		initial := make([]live.Mutation, half)
		for i, e := range g.Edges[:half] {
			initial[i] = live.InsertWeightedEdge(e.Src, e.Dst, diffWeight(e.Src, e.Dst))
		}
		for _, par := range parallelisms {
			for _, bk := range backends {
				name := fmt.Sprintf("sssp-%s-p%d-%s", g.Name, par, bk.name)
				t.Run(name, func(t *testing.T) {
					model := live.NewGraphState()
					for _, mu := range initial {
						model.Apply(mu)
					}
					rng := &streamRNG{s: 0xBEEF ^ uint64(par)<<4 ^ uint64(len(g.Edges))<<9}
					raw := mutationStream(g, rng, 4, 5, model, g.Edges[half:])
					// The SSSP view pins its source vertex.
					stream := make([][]live.Mutation, len(raw))
					for bi, batch := range raw {
						for _, mu := range batch {
							if mu.Op == live.OpDeleteVertex && mu.Src == source {
								continue
							}
							stream[bi] = append(stream[bi], mu)
						}
					}
					mk := func() live.Maintainer { return live.SSSP(source) }
					cfg := live.ViewConfig{Config: bk.cfg(iterative.Config{Parallelism: par})}
					runCrashRecovery(t, name, mk, initial, stream, cfg, rng)
				})
			}
		}
	}
}

// TestCrashRecoveryTornTail crashes *mid-append*: after the kill, the
// log's final frame is cut short, as when the process dies while the
// frame is being written. That batch was never acknowledged — Mutate did
// not return — so recovery must land on exactly the acknowledged prefix:
// all batches but the last.
func TestCrashRecoveryTornTail(t *testing.T) {
	g := diffGraphs()[0]
	half := len(g.Edges) / 2
	initial := make([]live.Mutation, half)
	for i, e := range g.Edges[:half] {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	model := live.NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	rng := &streamRNG{s: 0x70B4}
	stream := mutationStream(g, rng, 5, 6, model, g.Edges[half:])

	dataDir := t.TempDir()
	cfg := live.ViewConfig{Config: iterative.Config{Parallelism: 4}}
	dcfg := cfg
	dcfg.Durable = true
	dcfg.DataDir = dataDir
	dcfg.BatchSize = 1 << 30 // no flush: only the create-time snapshot

	const name = "cc-torn"
	v, err := live.OpenView(name, live.CC(), initial, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for bi, batch := range stream {
		if err := v.Mutate(batch...); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	v.Kill()

	// Cut into the final frame (a frame with >=1 mutation is >=37 bytes,
	// so removing up to 24 bytes always leaves it partial, never removes
	// it whole).
	walPath := filepath.Join(dataDir, name, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(1 + rng.intn(24))
	if err := os.Truncate(walPath, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}

	recovered, err := live.OpenView(name, live.CC(), nil, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	oracle, err := live.NewView(name+"-oracle", live.CC(), initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for _, batch := range stream[:len(stream)-1] {
		if err := oracle.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	assertByteIdentical(t, "torn tail", recovered.Snapshot(), oracle.Snapshot())
}
