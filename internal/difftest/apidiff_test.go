package difftest

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/iterative"
	"repro/internal/record"
)

// canonicalBytes serializes a solution in record.Less order — the byte
// string every engine, backend, and parallelism must agree on.
func canonicalBytes(recs []record.Record) []byte {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	buf := make([]byte, 0, len(out)*record.EncodedSize)
	for _, r := range out {
		buf = r.Encode(buf)
	}
	return buf
}

// TestRunAPIByteCompatAcrossEngines is the API-compatibility differential
// for the unified superstep driver: every public Run* entry point — bulk,
// incremental (both variants) and microstep — is one thin policy over the
// same driver core, so on the same graph they must
// produce byte-identical canonical solutions, for every solution backend
// (map, compact, spill) and parallelism. This pins the refactor: a driver
// lifecycle change that perturbs any single engine's result breaks the
// matrix immediately.
func TestRunAPIByteCompatAcrossEngines(t *testing.T) {
	for _, g := range diffGraphs() {
		engines := []struct {
			name string
			run  func(cfg iterative.Config) ([]record.Record, error)
		}{
			{"bulk", func(cfg iterative.Config) ([]record.Record, error) {
				spec, initial := algorithms.CCBulkSpec(g)
				res, err := iterative.RunBulk(spec, initial, cfg)
				if err != nil {
					return nil, err
				}
				return res.Solution, nil
			}},
			{"incr-match", func(cfg iterative.Config) ([]record.Record, error) {
				_, res, err := algorithms.CCIncremental(g, algorithms.CCMatch, cfg)
				if err != nil {
					return nil, err
				}
				release(t, res.Set)
				return res.Solution, nil
			}},
			{"incr-cogroup", func(cfg iterative.Config) ([]record.Record, error) {
				_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
				if err != nil {
					return nil, err
				}
				release(t, res.Set)
				return res.Solution, nil
			}},
			{"microstep", func(cfg iterative.Config) ([]record.Record, error) {
				spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
				res, err := runMicrostep(spec, s0, w0, cfg)
				if err != nil {
					return nil, err
				}
				release(t, res.Set)
				return res.Solution, nil
			}},
		}

		var base []byte
		var baseName string
		for _, par := range parallelisms {
			for _, bk := range backends {
				for _, e := range engines {
					name := fmt.Sprintf("%s/p%d/%s/%s", g.Name, par, bk.name, e.name)
					sol, err := e.run(bk.cfg(iterative.Config{Parallelism: par}))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := canonicalBytes(sol)
					if base == nil {
						base, baseName = got, name
						continue
					}
					if !bytes.Equal(got, base) {
						t.Fatalf("%s: solution bytes diverged from %s (%d vs %d bytes)",
							name, baseName, len(got), len(base))
					}
				}
			}
		}
	}
}

// TestSSSPAPIByteCompat is the same matrix for SSSP's two engine entry
// points (there is no bulk SSSP spec).
func TestSSSPAPIByteCompat(t *testing.T) {
	const source = 0
	for _, g := range diffGraphs() {
		we := weightedEdges(g)
		engines := []struct {
			name string
			run  func(cfg iterative.Config) ([]record.Record, error)
		}{
			{"incremental", func(cfg iterative.Config) ([]record.Record, error) {
				spec, s0, w0 := algorithms.SSSPSpec(we, source)
				res, err := iterative.RunIncremental(spec, s0, w0, cfg)
				if err != nil {
					return nil, err
				}
				release(t, res.Set)
				return res.Solution, nil
			}},
			{"microstep", func(cfg iterative.Config) ([]record.Record, error) {
				spec, s0, w0 := algorithms.SSSPSpec(we, source)
				res, err := runMicrostep(spec, s0, w0, cfg)
				if err != nil {
					return nil, err
				}
				release(t, res.Set)
				return res.Solution, nil
			}},
		}
		var base []byte
		var baseName string
		for _, par := range parallelisms {
			for _, bk := range backends {
				for _, e := range engines {
					name := fmt.Sprintf("%s/p%d/%s/%s", g.Name, par, bk.name, e.name)
					sol, err := e.run(bk.cfg(iterative.Config{Parallelism: par}))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := canonicalBytes(sol)
					if base == nil {
						base, baseName = got, name
						continue
					}
					if !bytes.Equal(got, base) {
						t.Fatalf("%s: solution bytes diverged from %s (%d vs %d bytes)",
							name, baseName, len(got), len(base))
					}
				}
			}
		}
	}
}
