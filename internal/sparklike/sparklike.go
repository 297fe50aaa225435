// Package sparklike is a miniature RDD engine in the style of early Spark
// — the bulk-dataflow baseline of the paper's evaluation (§6: "Spark is a
// parallel dataflow system ... centered around the concept of Resilient
// Distributed Data Sets cached in memory").
//
// Every dataset is a partitioned in-memory collection; transformations
// produce new fully-materialized datasets (map/filter stay in their
// partitions, reduceByKey/join/cogroup shuffle). Iterative programs are
// plain Go loops that create a new RDD per iteration — precisely the
// "recompute the full partial solution every pass" behaviour incremental
// iterations beat, including the simulated-incremental Connected
// Components variant of Figure 11 that must copy unchanged state forward.
package sparklike

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/record"
)

// Context owns execution resources.
type Context struct {
	parallelism int
	m           *metrics.Counters
}

// NewContext creates an execution context.
func NewContext(parallelism int, m *metrics.Counters) *Context {
	if parallelism <= 0 {
		parallelism = 1
	}
	return &Context{parallelism: parallelism, m: m}
}

// RDD is a partitioned, materialized dataset.
type RDD struct {
	ctx   *Context
	parts [][]record.Record
}

// Parallelize splits records into partitions.
func (c *Context) Parallelize(recs []record.Record) *RDD {
	parts := make([][]record.Record, c.parallelism)
	per := (len(recs) + c.parallelism - 1) / c.parallelism
	for p := 0; p < c.parallelism; p++ {
		lo, hi := p*per, (p+1)*per
		if lo > len(recs) {
			lo = len(recs)
		}
		if hi > len(recs) {
			hi = len(recs)
		}
		parts[p] = append([]record.Record(nil), recs[lo:hi]...)
	}
	return &RDD{ctx: c, parts: parts}
}

// eachPart runs f over all partitions in parallel and collects the
// resulting partitions.
func (r *RDD) eachPart(f func(part int, in []record.Record) []record.Record) *RDD {
	out := make([][]record.Record, len(r.parts))
	var wg sync.WaitGroup
	for p := range r.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out[p] = f(p, r.parts[p])
		}(p)
	}
	wg.Wait()
	return &RDD{ctx: r.ctx, parts: out}
}

// Filter keeps matching records.
func (r *RDD) Filter(pred func(record.Record) bool) *RDD {
	return r.eachPart(func(_ int, in []record.Record) []record.Record {
		var out []record.Record
		for _, rec := range in {
			r.udf()
			if pred(rec) {
				out = append(out, rec)
			}
		}
		return out
	})
}

// Union concatenates two datasets partition-wise.
func (r *RDD) Union(o *RDD) *RDD {
	parts := make([][]record.Record, len(r.parts))
	for p := range parts {
		parts[p] = append(append([]record.Record(nil), r.parts[p]...), o.parts[p]...)
	}
	return &RDD{ctx: r.ctx, parts: parts}
}

// shuffle redistributes records by key, with an optional map-side combiner
// fold applied per (partition, key) before the wire.
func (r *RDD) shuffle(key record.KeyFunc, combine func(a, b record.Record) record.Record) [][]record.Record {
	n := len(r.parts)
	// Map-side buckets: [src][dst][]record.
	buckets := make([][][]record.Record, n)
	var wg sync.WaitGroup
	for p := range r.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			local := make([]map[int64]record.Record, n)
			rows := make([][]record.Record, n)
			if combine != nil {
				for i := range local {
					local[i] = make(map[int64]record.Record)
				}
			}
			for _, rec := range r.parts[p] {
				k := key(rec)
				dst := record.PartitionOf(k, n)
				if combine != nil {
					if prev, ok := local[dst][k]; ok {
						r.udf()
						local[dst][k] = combine(prev, rec)
					} else {
						local[dst][k] = rec
					}
				} else {
					rows[dst] = append(rows[dst], rec)
				}
			}
			if combine != nil {
				for dst, m := range local {
					for _, rec := range m {
						rows[dst] = append(rows[dst], rec)
					}
				}
			}
			buckets[p] = rows
		}(p)
	}
	wg.Wait()
	out := make([][]record.Record, n)
	shipped := int64(0)
	for _, rows := range buckets {
		for dst, recs := range rows {
			out[dst] = append(out[dst], recs...)
			shipped += int64(len(recs))
		}
	}
	if r.ctx.m != nil {
		r.ctx.m.RecordsShipped.Add(shipped)
	}
	return out
}

// ReduceByKey folds all records sharing a key with a map-side combiner.
func (r *RDD) ReduceByKey(key record.KeyFunc, fn func(a, b record.Record) record.Record) *RDD {
	shuffled := &RDD{ctx: r.ctx, parts: r.shuffle(key, fn)}
	return shuffled.eachPart(func(_ int, in []record.Record) []record.Record {
		acc := make(map[int64]record.Record)
		for _, rec := range in {
			k := key(rec)
			if prev, ok := acc[k]; ok {
				r.udf()
				acc[k] = fn(prev, rec)
			} else {
				acc[k] = rec
			}
		}
		out := make([]record.Record, 0, len(acc))
		for _, rec := range acc {
			out = append(out, rec)
		}
		return out
	})
}

// Join equi-joins two datasets.
func (r *RDD) Join(o *RDD, lk, rk record.KeyFunc, fn func(l, rr record.Record, emit func(record.Record))) *RDD {
	left := r.shuffle(lk, nil)
	right := o.shuffle(rk, nil)
	out := make([][]record.Record, len(left))
	var wg sync.WaitGroup
	for p := range left {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			table := make(map[int64][]record.Record)
			for _, rec := range left[p] {
				k := lk(rec)
				table[k] = append(table[k], rec)
			}
			var rows []record.Record
			emit := func(rec record.Record) { rows = append(rows, rec) }
			for _, rec := range right[p] {
				for _, l := range table[rk(rec)] {
					r.udf()
					fn(l, rec, emit)
				}
			}
			out[p] = rows
		}(p)
	}
	wg.Wait()
	return &RDD{ctx: r.ctx, parts: out}
}

// CoGroup groups both datasets per key (outer semantics).
func (r *RDD) CoGroup(o *RDD, lk, rk record.KeyFunc, fn func(k int64, ls, rs []record.Record, emit func(record.Record))) *RDD {
	left := r.shuffle(lk, nil)
	right := o.shuffle(rk, nil)
	out := make([][]record.Record, len(left))
	var wg sync.WaitGroup
	for p := range left {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lt := make(map[int64][]record.Record)
			for _, rec := range left[p] {
				lt[lk(rec)] = append(lt[lk(rec)], rec)
			}
			rt := make(map[int64][]record.Record)
			for _, rec := range right[p] {
				rt[rk(rec)] = append(rt[rk(rec)], rec)
			}
			var rows []record.Record
			emit := func(rec record.Record) { rows = append(rows, rec) }
			for k, ls := range lt {
				r.udf()
				fn(k, ls, rt[k], emit)
			}
			for k, rs := range rt {
				if _, seen := lt[k]; !seen {
					r.udf()
					fn(k, nil, rs, emit)
				}
			}
			out[p] = rows
		}(p)
	}
	wg.Wait()
	return &RDD{ctx: r.ctx, parts: out}
}

// Collect flattens all partitions.
func (r *RDD) Collect() []record.Record {
	var out []record.Record
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out
}

// Count returns the total record count.
func (r *RDD) Count() int64 {
	var n int64
	for _, p := range r.parts {
		n += int64(len(p))
	}
	return n
}

// Cache is a no-op marker: this mini-RDD is always materialized, which is
// exactly the cached-loop-body configuration the paper benchmarks Spark
// in.
func (r *RDD) Cache() *RDD { return r }

func (r *RDD) udf() {
	if r.ctx.m != nil {
		r.ctx.m.UDFInvocations.Add(1)
	}
}
