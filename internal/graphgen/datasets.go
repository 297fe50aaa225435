package graphgen

// This file defines the scaled stand-ins for the paper's datasets
// (Table 2). The scale factor is roughly 1:1000 against the originals, but
// the *relative* properties the experiments exploit are preserved:
//
//	dataset          paper V / E / avg      ours (default scale)     property preserved
//	Wikipedia-EN     16.5M / 219.5M / 13.3  16k / ~220k / ~13        web graph, medium density
//	Webbase          115.7M / 1.74B / 15.0  96k / ~1.5M / ~15        web graph + huge diameter
//	Hollywood        2.0M / 229.0M / 115.3  4k / ~460k / ~115        very dense social graph
//	Twitter          41.7M / 1.47B / 35.3   32k / ~1.1M / ~35        dense power-law social graph
//	FOAF (Fig. 2)    1.2M / 7M / ~5.8       12k / ~70k / ~5.8        one dominant component + fringe

// Scale controls dataset size; 1.0 is the default laptop scale above.
// Benchmarks use smaller scales for fast runs.
type Scale float64

const (
	// ScaleDefault is used by the experiment CLI.
	ScaleDefault Scale = 1.0
	// ScaleTiny is used by unit tests.
	ScaleTiny Scale = 0.05
)

func (s Scale) apply(n int64) int64 {
	v := int64(float64(n) * float64(s))
	if v < 8 {
		v = 8
	}
	return v
}

// Wikipedia returns the Wikipedia-EN stand-in: a moderately dense web-style
// link graph with a fringe of small components.
func Wikipedia(s Scale) *Graph {
	v := s.apply(14000)
	e := s.apply(14000 * 13)
	g := RMAT("wikipedia", log2ceil(v), e, 0.57, 0.19, 0.19, 42)
	// A diameter tail stretches convergence to ~14 supersteps (the paper's
	// count for Wikipedia), and a fringe of small star components models
	// the disconnected remainder of a real link graph.
	return g.WithDiameterTail(12, 1).
		WithIsolatedFringe(s.apply(200), 8, 43).named("wikipedia")
}

// Webbase returns the Webbase stand-in: web-scale density and a giant
// component with a very large diameter (the 744-superstep tail of Fig. 10).
func Webbase(s Scale) *Graph {
	communities := s.apply(740)
	g := ChainedCommunities("webbase", communities, 128, 128*14, 4242)
	return g.WithIsolatedFringe(s.apply(100), 8, 4243).named("webbase")
}

// Hollywood returns the Hollywood stand-in: a small but very dense social
// graph (average degree ≈ 115).
func Hollywood(s Scale) *Graph {
	v := s.apply(4000)
	g := PreferentialAttachment("hollywood", v, 58, 7) // undirected doubling ≈ 115
	// A short tail: the dense core converges almost immediately, leaving
	// a brief sparse phase (the paper reports smaller gains here).
	return g.WithDiameterTail(8, 1).named("hollywood")
}

// Twitter returns the Twitter stand-in: a large, dense power-law graph.
func Twitter(s Scale) *Graph {
	v := s.apply(32000)
	e := s.apply(32000 * 35)
	g := RMAT("twitter", log2ceil(v), e, 0.52, 0.20, 0.21, 99)
	// Twitter also needs 14 supersteps in the paper; most of the graph
	// converges within 4, then a sparse tail remains (§6.2: "the remaining
	// 10 iterations change less than 5% of the elements").
	return g.WithDiameterTail(12, 1).
		WithIsolatedFringe(s.apply(120), 8, 100).named("twitter")
}

// FOAF returns the Figure-2 stand-in: a Friend-of-a-Friend style graph with
// one dominant component that converges quickly plus stragglers, so the
// working set collapses over the iterations.
func FOAF(s Scale) *Graph {
	v := s.apply(11000)
	g := PreferentialAttachment("foaf", v, 3, 77)
	// A long chain of small groups gives the convergence tail visible in
	// Figure 2 (475, 42, 5, 9, 6 working-set entries in late iterations).
	tail := ChainedCommunities("tail", s.apply(24), 16, 8, 78)
	merged := make([]Edge, 0, len(g.Edges)+len(tail.Edges)+1)
	merged = append(merged, g.Edges...)
	for _, e := range tail.Edges {
		merged = append(merged, Edge{Src: e.Src + g.NumVertices, Dst: e.Dst + g.NumVertices})
	}
	// One bridge attaches the chain to the main component so the component
	// count stays small but the tail converges late.
	merged = append(merged, Edge{Src: 0, Dst: g.NumVertices})
	return &Graph{Name: "foaf", NumVertices: g.NumVertices + tail.NumVertices, Edges: merged}
}

func (g *Graph) named(n string) *Graph { g.Name = n; return g }

func log2ceil(n int64) int {
	s := 0
	for (int64(1) << s) < n {
		s++
	}
	return s
}

// Dataset identifies one of the paper's graphs.
type Dataset string

// The datasets of Table 2 plus the FOAF graph of Figure 2.
const (
	DSWikipedia Dataset = "wikipedia"
	DSWebbase   Dataset = "webbase"
	DSHollywood Dataset = "hollywood"
	DSTwitter   Dataset = "twitter"
	DSFOAF      Dataset = "foaf"
)

// Load builds the named dataset at the given scale.
func Load(d Dataset, s Scale) *Graph {
	switch d {
	case DSWikipedia:
		return Wikipedia(s)
	case DSWebbase:
		return Webbase(s)
	case DSHollywood:
		return Hollywood(s)
	case DSTwitter:
		return Twitter(s)
	case DSFOAF:
		return FOAF(s)
	}
	return nil
}

// AllTable2 lists the datasets appearing in the paper's Table 2.
func AllTable2() []Dataset {
	return []Dataset{DSWikipedia, DSWebbase, DSHollywood, DSTwitter}
}
