package live

import (
	"testing"

	"repro/internal/iterative"
)

// tailIslands is the replay benchmark's graph: 2 000 islands of 10
// vertices with three out-edges each (offsets 1, 3 and 7 around the
// island), 20 000 vertices and 60 000 edges in all.
func tailIslands() []Mutation {
	var out []Mutation
	for c := int64(0); c < 2000; c++ {
		at := 10 * c
		for i := int64(0); i < 10; i++ {
			for _, d := range []int64{1, 3, 7} {
				out = append(out, InsertEdge(at+i, at+(i+d)%10))
			}
		}
	}
	return out
}

// BenchmarkRecoverFrameTail reopens a durable CC view of tailIslands at
// Parallelism 2 whose log holds a tail past its snapshot: one 64-insert
// frame, 64 one-insert frames, or 256 one-insert frames, each insert
// joining two islands. Recovery replays the tail frame by frame, each as
// one maintenance flush, and writes nothing, so every reopen replays the
// same tail; the time per op is one reopen.
func BenchmarkRecoverFrameTail(b *testing.B) {
	for _, c := range []struct {
		name             string
		frames, perFrame int64
	}{
		{"1x64", 1, 64},
		{"64x1", 64, 1},
		{"256x1", 256, 1},
	} {
		b.Run("frames="+c.name, func(b *testing.B) {
			cfg := ViewConfig{
				Config:  iterative.Config{Parallelism: 2},
				Durable: true, DataDir: b.TempDir(),
				BatchSize: 1 << 30, // nothing flushes: every frame stays past the snapshot
			}
			v, err := NewView("tail", CC(), tailIslands(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			join := int64(0)
			for range c.frames {
				var frame []Mutation
				for range c.perFrame {
					frame = append(frame, InsertEdge(20*join, 20*join+10))
					join++
				}
				if err := v.Mutate(frame...); err != nil {
					b.Fatal(err)
				}
			}
			if err := v.Close(); err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				v, err := NewView("tail", CC(), nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if got := v.dur.replayed; got != c.frames {
					b.Fatalf("replayed %d frames, want %d", got, c.frames)
				}
				if err := v.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
