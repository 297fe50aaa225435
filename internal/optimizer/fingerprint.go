package optimizer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// Fingerprint is the one structural identity of a physical plan: two plans
// with equal fingerprints compile to the same runtime wiring — the same
// tasks, exchanges, routing, cache slots and operator kernels — so they
// are interchangeable under a running session. It covers everything the
// runtime reads from a plan (dense node and edge identities, roles, local
// strategies, build sides, sort and inject keys, fused chains and
// absorbed combiners, shipping strategies with their partition keys,
// cache flags) and nothing the runtime ignores (cost and cardinality
// estimates), which is what lets a re-plan for a smaller workset be
// recognised as "the shape already executing".
//
// Three consumers share it: the iteration driver (a mid-run re-plan whose
// fingerprint equals the running plan's is a no-op), the distrib handshake
// and plan-epoch acks, and the live tier's replica cross-check. It is
// stable across processes: key selectors are named by where the logical
// plan declares them — (logical node ID, key slot) — never by function
// pointer.
func (p *PhysPlan) Fingerprint() string {
	keys := planKeyNames(p)
	h := sha256.New()
	fmt.Fprintf(h, "par=%d hosts=%d nodes=%d edges=%d\n",
		p.Parallelism, p.Hosts, len(p.Nodes), p.NumEdges)
	for _, n := range p.Nodes {
		fmt.Fprintf(h, "n%d role=%d local=%d logical=%d build=%d sort=%s inject=%s fused=",
			n.ID, n.Role, n.Local, n.Logical.ID, n.BuildSide, keys.name(n.SortKey), keys.name(n.InjectKey))
		for _, f := range n.FusedChain {
			fmt.Fprintf(h, "%d,", f.ID)
		}
		if n.Union != nil {
			// Hashed only when set, like the combiner below.
			fmt.Fprintf(h, " union=%d", n.Union.ID)
		}
		if n.Combiner != nil {
			// Hashed only when set, so plans without an absorbed combiner
			// keep the fingerprints other processes already agree on.
			fmt.Fprintf(h, " combine=%d", n.Combiner.ID)
		}
		fmt.Fprintln(h)
		for _, e := range n.Inputs {
			fmt.Fprintf(h, " e%d from=%d ship=%d cache=%t key=%s\n",
				e.ID, e.From.ID, e.Ship, e.Cache, keys.name(e.Key))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyNames names key selectors process-independently. A selector the
// logical plan declares is named by its first declaration site in logical
// node ID order; one that only the planning options supplied (a sink
// partitioning key) is named by its order of first appearance in the
// physical plan, which is the same walk in every process.
type keyNames struct {
	names  map[uintptr]string
	extras int // selectors named so far that the logical plan does not declare
}

func planKeyNames(p *PhysPlan) *keyNames {
	var logical []*dataflow.Node
	seen := make(map[*dataflow.Node]bool)
	add := func(l *dataflow.Node) {
		if !seen[l] {
			seen[l] = true
			logical = append(logical, l)
		}
	}
	for _, n := range p.Nodes {
		add(n.Logical)
		if n.Union != nil {
			add(n.Union)
		}
		for _, f := range n.FusedChain {
			add(f)
		}
		if n.Combiner != nil {
			add(n.Combiner)
		}
	}
	sort.Slice(logical, func(a, b int) bool { return logical[a].ID < logical[b].ID })

	k := &keyNames{names: make(map[uintptr]string)}
	declare := func(f record.KeyFunc, name string) {
		if id := record.KeyID(f); id != 0 {
			if _, ok := k.names[id]; !ok {
				k.names[id] = name
			}
		}
	}
	for _, l := range logical {
		for slot, f := range l.Keys {
			declare(f, fmt.Sprintf("%d.%d", l.ID, slot))
		}
		for in, ps := range l.Preserves {
			for j, f := range ps {
				declare(f, fmt.Sprintf("%d.p%d.%d", l.ID, in, j))
			}
		}
	}
	return k
}

func (k *keyNames) name(f record.KeyFunc) string {
	id := record.KeyID(f)
	if id == 0 {
		return "-"
	}
	s, ok := k.names[id]
	if !ok {
		s = fmt.Sprintf("x%d", k.extras)
		k.extras++
		k.names[id] = s
	}
	return s
}
