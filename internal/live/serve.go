package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The HTTP JSON API of `spinflow serve`:
//
//	POST   /views                 create a view (CreateRequest)
//	GET    /views                 list view names
//	GET    /stats                 scheduler-wide stats
//	POST   /views/{name}/mutations append mutations (array of MutationJSON)
//	POST   /views/{name}/flush    force the pending batch to apply
//	POST   /views/{name}/checkpoint  force a streaming snapshot (durable views)
//	GET    /views/{name}/query?key=K  query one solution record
//	GET    /views/{name}/stats    per-view stats
//	DELETE /views/{name}          drop the view
//
// A down view (live.go) answers mutations, flush, checkpoint and query with
// 503 and the cause in the error body, and while it is restarting with
// Retry-After, the seconds until its next reopen is due; its stats answer
// 200 with the state. GET /views lists it.

// CreateRequest is the body of POST /views.
type CreateRequest struct {
	Name string `json:"name"`
	// Algorithm selects the maintainer: "cc" or "sssp"; any other name is
	// rejected with 400.
	Algorithm string `json:"algorithm"`
	// Source is the SSSP source vertex (ignored for cc).
	Source int64 `json:"source"`
	// Edges is the initial edge list ([src, dst] or weighted via Weights).
	Edges []EdgeJSON `json:"edges"`
	// Parallelism, BatchSize, FlushIntervalMS and SolutionMemoryBudget
	// override the scheduler's default view config when non-zero.
	Parallelism          int   `json:"parallelism"`
	BatchSize            int   `json:"batch_size"`
	FlushIntervalMS      int   `json:"flush_interval_ms"`
	SolutionMemoryBudget int64 `json:"solution_memory_budget"`
}

// recipe is the view recipe the request spells out.
func (r CreateRequest) recipe() recipe {
	return recipe{Algorithm: r.Algorithm, Source: r.Source, Parallelism: r.Parallelism, BatchSize: r.BatchSize,
		FlushIntervalMS: int64(r.FlushIntervalMS), SolutionMemoryBudget: r.SolutionMemoryBudget}
}

// EdgeJSON is one edge on the wire.
type EdgeJSON struct {
	Src    int64   `json:"src"`
	Dst    int64   `json:"dst"`
	Weight float64 `json:"weight"`
}

// MutationJSON is one streamed mutation on the wire; Op uses the
// Op.String forms ("insert-edge", "delete-edge", "add-vertex",
// "delete-vertex").
type MutationJSON struct {
	Op     string  `json:"op"`
	Src    int64   `json:"src"`
	Dst    int64   `json:"dst"`
	Weight float64 `json:"weight"`
}

func (m MutationJSON) decode() (Mutation, error) {
	for op := OpInsertEdge; op <= OpDeleteVertex; op++ {
		if op.String() == m.Op {
			return Mutation{Op: op, Src: m.Src, Dst: m.Dst, Weight: m.Weight}, nil
		}
	}
	return Mutation{}, fmt.Errorf("%w %q", errUnknownOp, m.Op)
}

// QueryResponse is the body of GET /views/{name}/query.
type QueryResponse struct {
	Key   int64   `json:"key"`
	Found bool    `json:"found"`
	A     int64   `json:"a"`
	B     int64   `json:"b"`
	X     float64 `json:"x"`
}

// writeJSON writes a response body. An Encode error here means the
// client got a truncated or empty body after a success status line — a
// dropped connection, usually — which the handler cannot repair, but
// must not silently swallow either: it is logged and counted so a spike
// of half-delivered responses shows up in the stats.
func (s *Scheduler) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeErrors.Add(1)
		log.Printf("live: writing %d response: %v", code, err)
	}
}

// writeErr answers err with code, or with 503 when the view the route
// names is down, with Retry-After while it is restarting.
func (s *Scheduler) writeErr(w http.ResponseWriter, r *http.Request, code int, err error) {
	if errors.Is(err, ErrViewDown) {
		code = http.StatusServiceUnavailable
		if sl, v := s.lookup(r.PathValue("name")); v != nil && restartable(v.cfg.Durable, err) {
			wait := time.Until(time.Unix(0, sl.next.Load()))
			w.Header().Set("Retry-After", strconv.Itoa(max(1, int((wait+time.Second-1)/time.Second))))
		}
	}
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON request body under the scheduler's size
// limit, answering 413 (with the standard error JSON) for oversized
// bodies and 400 for malformed ones. It reports whether decoding
// succeeded; on failure the response has been written.
func (s *Scheduler) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := s.cfg.MaxRequestBytes
	if limit <= 0 {
		limit = 1 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeErr(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("live: request body exceeds %d bytes", limit))
			return false
		}
		s.writeErr(w, r, http.StatusBadRequest, err)
		return false
	}
	return true
}

// Handler returns the scheduler's HTTP API. Each handler runs under its
// route's profiler labels, {layer=http, route=<pattern>}, which come off
// again afterwards; the request's context carries them, so a mutation,
// flush or checkpoint handed it (MutateContext, FlushContext,
// CheckpointContext) puts them back after its WAL append, control rounds,
// supersteps and snapshot.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		route := pprof.Labels("layer", "http", "route", pattern)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			ctx := pprof.WithLabels(r.Context(), route)
			pprof.SetGoroutineLabels(ctx)
			defer pprof.SetGoroutineLabels(context.Background())
			h(w, r.WithContext(ctx))
		})
	}

	handle("POST /views", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		rcp := req.recipe()
		m, err := rcp.maintainer()
		if err != nil {
			s.writeErr(w, r, http.StatusBadRequest, err)
			return
		}
		initial := make([]Mutation, len(req.Edges))
		for i, e := range req.Edges {
			initial[i] = InsertWeightedEdge(e.Src, e.Dst, e.Weight)
		}
		cfg := rcp.applyTo(s.cfg.DefaultView)
		v, err := s.Create(req.Name, m, initial, &cfg)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrMemoryBudget) {
				code = http.StatusInsufficientStorage
			}
			s.writeErr(w, r, code, err)
			return
		}
		s.writeJSON(w, http.StatusCreated, v.Stats())
	})

	handle("GET /views", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Names())
	})

	handle("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Stats())
	})

	// handleView serves a route of the view {name} names: 404 if none does.
	handleView := func(pattern string, h func(w http.ResponseWriter, r *http.Request, v *LiveView)) {
		handle(pattern, func(w http.ResponseWriter, r *http.Request) {
			name := r.PathValue("name")
			if v, ok := s.Get(name); ok {
				h(w, r, v)
				return
			}
			s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("live: no view %q", name))
		})
	}

	handleView("POST /views/{name}/mutations", func(w http.ResponseWriter, r *http.Request, v *LiveView) {
		var wire []MutationJSON
		if !s.decodeBody(w, r, &wire) {
			return
		}
		muts := make([]Mutation, len(wire))
		for i, mj := range wire {
			mut, err := mj.decode()
			if err != nil {
				s.writeErr(w, r, http.StatusBadRequest, err)
				return
			}
			muts[i] = mut
		}
		if err := v.MutateContext(r.Context(), muts...); err != nil {
			s.writeErr(w, r, http.StatusConflict, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, map[string]int{"queued": len(muts)})
	})

	handleView("POST /views/{name}/flush", func(w http.ResponseWriter, r *http.Request, v *LiveView) {
		if err := v.FlushContext(r.Context()); err != nil {
			s.writeErr(w, r, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, http.StatusOK, v.Stats())
	})

	handleView("POST /views/{name}/checkpoint", func(w http.ResponseWriter, r *http.Request, v *LiveView) {
		if err := v.CheckpointContext(r.Context()); err != nil {
			s.writeErr(w, r, http.StatusConflict, err)
			return
		}
		s.writeJSON(w, http.StatusOK, v.Stats())
	})

	handleView("GET /views/{name}/query", func(w http.ResponseWriter, r *http.Request, v *LiveView) {
		key, err := strconv.ParseInt(r.URL.Query().Get("key"), 10, 64)
		if err != nil {
			s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("live: bad key: %w", err))
			return
		}
		rec, found := v.Query(key)
		if !found {
			if err := v.downErr(); err != nil {
				s.writeErr(w, r, http.StatusServiceUnavailable, err)
				return
			}
		}
		resp := QueryResponse{Key: key, Found: found}
		if found {
			resp.A, resp.B, resp.X = rec.A, rec.B, rec.X
		}
		s.writeJSON(w, http.StatusOK, resp)
	})

	handleView("GET /views/{name}/stats", func(w http.ResponseWriter, r *http.Request, v *LiveView) {
		s.writeJSON(w, http.StatusOK, v.Stats())
	})

	handle("DELETE /views/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if err := s.Drop(name); err != nil {
			s.writeErr(w, r, http.StatusNotFound, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	})

	return mux
}

// Serve runs the scheduler's HTTP API on addr until stop closes, then
// drains the listener and closes every view (Scheduler.Close): nothing is
// flushed or snapshotted, sessions hang up and spill files are removed, and
// a durable view comes back by replaying its log. If ready is non-nil it
// receives the bound address once listening (useful with ":0").
func Serve(addr string, s *Scheduler, stop <-chan struct{}, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := obs.NewHTTPServer(s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr()
	}
	select {
	case <-stop:
	case err := <-errc:
		s.Close()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	closeErr := s.Close()
	if shutdownErr != nil {
		return shutdownErr
	}
	return closeErr
}
