package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
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

// CreateRequest is the body of POST /views.
type CreateRequest struct {
	Name string `json:"name"`
	// Algorithm selects the maintainer: "cc" or "sssp". "auto" is an
	// alias of "cc", kept because deployed clients send it.
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
	switch m.Op {
	case "insert-edge":
		return Mutation{Op: OpInsertEdge, Src: m.Src, Dst: m.Dst, Weight: m.Weight}, nil
	case "delete-edge":
		return Mutation{Op: OpDeleteEdge, Src: m.Src, Dst: m.Dst}, nil
	case "add-vertex":
		return Mutation{Op: OpAddVertex, Src: m.Src}, nil
	case "delete-vertex":
		return Mutation{Op: OpDeleteVertex, Src: m.Src}, nil
	}
	return Mutation{}, fmt.Errorf("live: unknown mutation op %q", m.Op)
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
		s.logf("live: writing %d response: %v", code, err)
	}
}

func (s *Scheduler) writeErr(w http.ResponseWriter, code int, err error) {
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
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("live: request body exceeds %d bytes", limit))
			return false
		}
		s.writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// Handler returns the scheduler's HTTP API.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /views", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		rcp := req.recipe()
		m, err := rcp.maintainer()
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
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
			s.writeErr(w, code, err)
			return
		}
		s.writeJSON(w, http.StatusCreated, v.Stats())
	})

	mux.HandleFunc("GET /views", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Names())
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		st.MemoryUsed = s.Usage()
		s.writeJSON(w, http.StatusOK, st)
	})

	view := func(w http.ResponseWriter, r *http.Request) (*LiveView, bool) {
		name := r.PathValue("name")
		v, ok := s.Get(name)
		if !ok {
			s.writeErr(w, http.StatusNotFound, fmt.Errorf("live: no view %q", name))
			return nil, false
		}
		return v, true
	}

	mux.HandleFunc("POST /views/{name}/mutations", func(w http.ResponseWriter, r *http.Request) {
		v, ok := view(w, r)
		if !ok {
			return
		}
		var wire []MutationJSON
		if !s.decodeBody(w, r, &wire) {
			return
		}
		muts := make([]Mutation, len(wire))
		for i, mj := range wire {
			mut, err := mj.decode()
			if err != nil {
				s.writeErr(w, http.StatusBadRequest, err)
				return
			}
			muts[i] = mut
		}
		if err := v.Mutate(muts...); err != nil {
			s.writeErr(w, http.StatusConflict, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, map[string]int{"queued": len(muts)})
	})

	mux.HandleFunc("POST /views/{name}/flush", func(w http.ResponseWriter, r *http.Request) {
		v, ok := view(w, r)
		if !ok {
			return
		}
		if err := v.Flush(); err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, http.StatusOK, v.Stats())
	})

	mux.HandleFunc("POST /views/{name}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		v, ok := view(w, r)
		if !ok {
			return
		}
		if err := v.Checkpoint(); err != nil {
			s.writeErr(w, http.StatusConflict, err)
			return
		}
		s.writeJSON(w, http.StatusOK, v.Stats())
	})

	mux.HandleFunc("GET /views/{name}/query", func(w http.ResponseWriter, r *http.Request) {
		v, ok := view(w, r)
		if !ok {
			return
		}
		key, err := strconv.ParseInt(r.URL.Query().Get("key"), 10, 64)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("live: bad key: %w", err))
			return
		}
		rec, found := v.Query(key)
		resp := QueryResponse{Key: key, Found: found}
		if found {
			resp.A, resp.B, resp.X = rec.A, rec.B, rec.X
		}
		s.writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /views/{name}/stats", func(w http.ResponseWriter, r *http.Request) {
		v, ok := view(w, r)
		if !ok {
			return
		}
		s.writeJSON(w, http.StatusOK, v.Stats())
	})

	mux.HandleFunc("DELETE /views/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if err := s.Drop(name); err != nil {
			s.writeErr(w, http.StatusNotFound, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	})

	return mux
}

// Serve runs the scheduler's HTTP API on addr until stop closes, then
// shuts the server down gracefully and closes every view — pending
// batches are flushed, sessions released, and spill files removed. If
// ready is non-nil it receives the bound address once listening (useful
// with ":0").
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
