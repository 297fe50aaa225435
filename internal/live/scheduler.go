package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
)

// ErrMemoryBudget is returned when creating a view would push the summed
// resident solution footprint past the scheduler's budget.
var ErrMemoryBudget = errors.New("live: scheduler memory budget exceeded")

// SchedulerConfig configures the concurrent view scheduler.
type SchedulerConfig struct {
	// MemoryBudget bounds the summed resident solution-set bytes across
	// all views (serialized-form estimate, the same accounting as
	// Config.SolutionMemoryBudget). Zero means unlimited. Admission is
	// enforced twice: an optimistic estimate before a view is built, and
	// the real footprint after its cold run — a view that lands over
	// budget is torn down again.
	MemoryBudget int64
	// DefaultView supplies defaults for views created without an explicit
	// config (the HTTP API's create endpoint).
	DefaultView ViewConfig
	// MaxRequestBytes bounds the HTTP request bodies the API decodes
	// (view creation edge lists, mutation batches); larger bodies get
	// 413. Zero means the 1 MiB default.
	MaxRequestBytes int64
	// DataDir makes every view durable: each gets a write-ahead log and
	// snapshot directory under DataDir/<name>, plus a meta.json recording
	// how to rebuild its maintainer. Recover() restores the registered
	// views on startup. Empty means in-memory views.
	DataDir string
	// Log receives operational messages the API cannot report to the
	// client (e.g. a response-body write failing after the status line
	// went out). Nil uses the process-default logger.
	Log *log.Logger
	// Obs, if set, is the telemetry registry the scheduler exports
	// through: a collector emitting scheduler-wide and per-view gauges
	// (view="<name>" labels) is registered on it, and every view created
	// or recovered without its own registry inherits this one — so view
	// latency histograms, spans, and work counters all land in the same
	// /metrics plane.
	Obs *obs.Registry
}

// SchedulerStats aggregates the scheduler's state.
type SchedulerStats struct {
	Views        int
	MemoryBudget int64
	MemoryUsed   int64
	// EncodeErrors counts API responses whose JSON body failed to write
	// after the status line was sent (client gone mid-response).
	EncodeErrors int64
	PerView      map[string]ViewStats
}

// Scheduler serves many named live views concurrently: view creation is
// admission-controlled against the memory budget, maintenance is
// serialized per view (by the view itself), and distinct views flush and
// answer queries fully in parallel.
type Scheduler struct {
	cfg SchedulerConfig

	// encodeErrors counts response bodies the API failed to deliver.
	encodeErrors atomic.Int64

	mu    sync.RWMutex
	views map[string]*LiveView
}

// NewScheduler creates an empty scheduler. With SchedulerConfig.Obs set,
// it registers the stats collector and threads the registry (plus its
// shared work counters) into the default view config.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Obs != nil {
		if cfg.DefaultView.Obs == nil {
			cfg.DefaultView.Obs = cfg.Obs
		}
		if cfg.DefaultView.Metrics == nil {
			cfg.DefaultView.Metrics = cfg.Obs.Counters()
		}
	}
	s := &Scheduler{cfg: cfg, views: make(map[string]*LiveView)}
	if cfg.Obs != nil {
		cfg.Obs.RegisterCollector(s.collect)
	}
	return s
}

// collect emits the scheduler's stats as exporter gauges: the aggregate
// numbers unlabeled, the per-view ViewStats with a view="<name>" label.
// LastError, being a string, is exported as view_error 0/1 — the text
// itself is in the HTTP API's stats endpoint.
func (s *Scheduler) collect(emit func(name, labels string, value float64)) {
	st := s.Stats()
	emit("scheduler_views", "", float64(st.Views))
	emit("scheduler_memory_used_bytes", "", float64(st.MemoryUsed))
	emit("scheduler_memory_budget_bytes", "", float64(st.MemoryBudget))
	emit("scheduler_encode_errors", "", float64(st.EncodeErrors))
	names := make([]string, 0, len(st.PerView))
	for name := range st.PerView {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs := st.PerView[name]
		l := fmt.Sprintf("view=%q", name)
		emit("view_vertices", l, float64(vs.Vertices))
		emit("view_edges", l, float64(vs.Edges))
		emit("view_solution_records", l, float64(vs.SolutionRecords))
		emit("view_solution_bytes", l, float64(vs.SolutionBytes))
		emit("view_mutations_pending", l, float64(vs.MutationsPending))
		emit("view_deltas_applied", l, float64(vs.DeltasApplied))
		emit("view_flushes", l, float64(vs.Flushes))
		emit("view_warm_restarts", l, float64(vs.WarmRestarts))
		emit("view_partial_recomputes", l, float64(vs.PartialRecomputes))
		emit("view_full_recomputes", l, float64(vs.FullRecomputes))
		emit("view_supersteps", l, float64(vs.Supersteps))
		emit("view_rebinds", l, float64(vs.Rebinds))
		emit("view_wal_bytes", l, float64(vs.WALBytes))
		emit("view_snapshots_written", l, float64(vs.SnapshotsWritten))
		emit("view_recovered_frames", l, float64(vs.RecoveredFrames))
		for _, sh := range vs.Shards {
			sl := fmt.Sprintf("view=%q,host=\"%d\"", name, sh.Host)
			emit("view_shard_records", sl, float64(sh.Records))
			emit("view_shard_bytes", sl, float64(sh.Bytes))
		}
		errSet := 0.0
		if vs.LastError != "" {
			errSet = 1
		}
		emit("view_error", l, errSet)
	}
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Usage returns the summed resident solution bytes across views.
func (s *Scheduler) Usage() int64 {
	s.mu.RLock()
	views := make([]*LiveView, 0, len(s.views))
	for _, v := range s.views {
		if v != nil { // skip names reserved by in-flight creates
			views = append(views, v)
		}
	}
	s.mu.RUnlock()
	var total int64
	for _, v := range views {
		total += v.Bytes()
	}
	return total
}

// Create builds a named view, runs its cold fixpoint, and registers it.
// A nil cfg uses SchedulerConfig.DefaultView. The build runs outside the
// scheduler lock (other views keep serving); the name is reserved first
// so concurrent creates cannot race on it.
func (s *Scheduler) Create(name string, m Maintainer, initial []Mutation, cfg *ViewConfig) (*LiveView, error) {
	if name == "" {
		return nil, fmt.Errorf("live: view name must not be empty")
	}
	vcfg := s.cfg.DefaultView
	if cfg != nil {
		vcfg = *cfg
	}
	if s.cfg.Obs != nil && vcfg.Obs == nil {
		vcfg.Obs = s.cfg.Obs
		if vcfg.Metrics == nil {
			vcfg.Metrics = s.cfg.Obs.Counters()
		}
	}
	// A scheduler serving over workers shards every view by default; an
	// explicit per-view worker set still wins.
	if vcfg.Workers == nil {
		vcfg.Workers = s.cfg.DefaultView.Workers
	}
	if err := vcfg.Validate(); err != nil {
		return nil, err
	}
	// Optimistic admission: each initial mutation contributes at most two
	// fresh solution entries (an edge's endpoints).
	if b := s.cfg.MemoryBudget; b > 0 {
		est := int64(len(initial)) * 2 * record.EncodedSize
		if s.Usage()+est > b {
			return nil, fmt.Errorf("%w: %d views use %d bytes, view %q estimated at %d, budget %d",
				ErrMemoryBudget, s.NumViews(), s.Usage(), name, est, b)
		}
	}

	// A scheduler with a data directory serves durable views: the config
	// is routed through OpenView and the maintainer recipe is persisted
	// alongside the view's log so Recover can rebuild it.
	if s.cfg.DataDir != "" && !vcfg.Durable {
		vcfg.Durable = true
		vcfg.DataDir = s.cfg.DataDir
	}
	if vcfg.Durable {
		if err := validateViewName(name); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if _, dup := s.views[name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("live: view %q already exists", name)
	}
	s.views[name] = nil // reserve the name while building
	s.mu.Unlock()

	if vcfg.Durable {
		// meta.json is the scheduler's create-commit marker (written
		// last, below). A directory holding a log or snapshot but no
		// meta is a create that crashed mid-way: nothing was ever
		// acknowledged, Recover skipped it, and silently "recovering" it
		// here would hand this caller a view built from the crashed
		// attempt's edges instead of `initial`. Clear it first.
		dir := filepath.Join(vcfg.DataDir, name)
		if _, err := os.Stat(filepath.Join(dir, metaFileName)); os.IsNotExist(err) {
			if rerr := os.RemoveAll(dir); rerr != nil {
				s.drop(name)
				return nil, rerr
			}
		}
	}

	v, err := OpenView(name, m, initial, vcfg)
	if err != nil {
		s.drop(name)
		return nil, err
	}
	if vcfg.Durable {
		if err := saveRecipe(filepath.Join(vcfg.DataDir, name), m, vcfg); err != nil {
			s.drop(name)
			v.Kill()
			os.RemoveAll(filepath.Join(vcfg.DataDir, name))
			return nil, err
		}
	}
	s.mu.Lock()
	s.views[name] = v
	s.mu.Unlock()

	// Post-build enforcement against the real footprint.
	if b := s.cfg.MemoryBudget; b > 0 && s.Usage() > b {
		used := s.Usage()
		s.drop(name)
		v.Close()
		if vcfg.Durable {
			// Admission failed, so nothing was acknowledged; an orphaned
			// durable directory would resurrect the view on Recover.
			os.RemoveAll(filepath.Join(vcfg.DataDir, name))
		}
		return nil, fmt.Errorf("%w: view %q would bring usage to %d bytes, budget %d",
			ErrMemoryBudget, name, used, b)
	}
	return v, nil
}

// recipe is the one spelling of what it takes to rebuild a view somewhere
// else: the maintainer's identity and the per-view knobs. It is meta.json
// beside a durable view's log (Recover reads it back), the identity half of
// a view_open spec (shardSpec embeds it), and what the fields of a
// CreateRequest amount to.
type recipe struct {
	Algorithm            string `json:"algorithm"`
	Source               int64  `json:"source,omitempty"`
	Parallelism          int    `json:"parallelism,omitempty"`
	BatchSize            int    `json:"batch_size,omitempty"`
	FlushIntervalMS      int64  `json:"flush_interval_ms,omitempty"`
	SolutionMemoryBudget int64  `json:"solution_memory_budget,omitempty"`
	// Job makes the session a one-shot job: every host derives the spec
	// from it (distrib.BuildSpec) instead of from a shipped graph.
	Job *distrib.JobSpec `json:"job,omitempty"`
}

// recipeOf is the recipe of a view built from (m, cfg). Only the built-in
// maintainers have one.
func recipeOf(m Maintainer, cfg ViewConfig) (recipe, error) {
	r := recipe{
		Algorithm:            m.Name(),
		Parallelism:          cfg.Parallelism,
		BatchSize:            cfg.BatchSize,
		FlushIntervalMS:      cfg.FlushInterval.Milliseconds(),
		SolutionMemoryBudget: cfg.SolutionMemoryBudget,
	}
	switch m := m.(type) {
	case ccMaintainer:
	case ssspMaintainer:
		r.Source = m.source
	case jobMaintainer:
		r.Job = &m.js
	default:
		return recipe{}, fmt.Errorf("live: maintainer %q (%T) has no recipe: it can neither shard nor recover", m.Name(), m)
	}
	return r, nil
}

// maintainer rebuilds the Maintainer the recipe names. "auto" and the empty
// name are aliases of "cc", kept because deployed clients send them.
func (r recipe) maintainer() (Maintainer, error) {
	switch {
	case r.Job != nil:
		return newJobMaintainer(*r.Job)
	case r.Algorithm == "cc", r.Algorithm == "auto", r.Algorithm == "":
		return CC(), nil
	case r.Algorithm == "sssp":
		return SSSP(r.Source), nil
	}
	return nil, fmt.Errorf("live: unknown algorithm %q", r.Algorithm)
}

// applyTo overrides cfg with the knobs the recipe sets (non-zero ones).
func (r recipe) applyTo(cfg ViewConfig) ViewConfig {
	if r.Parallelism != 0 {
		cfg.Parallelism = r.Parallelism
	}
	if r.BatchSize != 0 {
		cfg.BatchSize = r.BatchSize
	}
	if r.FlushIntervalMS != 0 {
		cfg.FlushInterval = time.Duration(r.FlushIntervalMS) * time.Millisecond
	}
	if r.SolutionMemoryBudget != 0 {
		cfg.SolutionMemoryBudget = r.SolutionMemoryBudget
	}
	return cfg
}

const metaFileName = "meta.json"

func saveRecipe(dir string, m Maintainer, cfg ViewConfig) error {
	r, err := recipeOf(m, cfg)
	if err != nil {
		return err
	}
	return iterative.WriteFileDurable(filepath.Join(dir, metaFileName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(r)
	})
}

// Recover reopens every durable view found under the scheduler's data
// directory: per view, the latest valid snapshot is loaded, the WAL tail
// is replayed, and the view is registered under its directory name. It
// returns the number of views recovered; on error, views recovered so
// far stay registered.
func (s *Scheduler) Recover() (int, error) {
	if s.cfg.DataDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dir := filepath.Join(s.cfg.DataDir, name)
		raw, err := os.ReadFile(filepath.Join(dir, metaFileName))
		if err != nil {
			if os.IsNotExist(err) {
				// No meta: either an unrelated directory or a create that
				// crashed before its commit marker. Only the latter holds
				// view state, and none of it was acknowledged — remove it
				// so a later Create of the same name starts fresh.
				if _, serr := os.Stat(filepath.Join(dir, walFileName)); serr == nil {
					os.RemoveAll(dir)
				}
				continue
			}
			return n, err
		}
		var meta recipe
		if err := json.Unmarshal(raw, &meta); err != nil {
			return n, fmt.Errorf("live: view %q meta: %w", name, err)
		}
		m, err := meta.maintainer()
		if err != nil {
			return n, fmt.Errorf("live: view %q meta: %w", name, err)
		}
		cfg := meta.applyTo(s.cfg.DefaultView)
		cfg.Durable = true
		cfg.DataDir = s.cfg.DataDir

		s.mu.Lock()
		if _, dup := s.views[name]; dup {
			s.mu.Unlock()
			return n, fmt.Errorf("live: view %q already registered", name)
		}
		s.views[name] = nil
		s.mu.Unlock()

		v, err := OpenView(name, m, nil, cfg)
		if err != nil {
			s.drop(name)
			return n, fmt.Errorf("live: recovering view %q: %w", name, err)
		}
		s.mu.Lock()
		s.views[name] = v
		s.mu.Unlock()
		n++
	}
	return n, nil
}

// drop removes a name from the registry without closing the view.
func (s *Scheduler) drop(name string) {
	s.mu.Lock()
	delete(s.views, name)
	s.mu.Unlock()
}

// Get returns a view by name.
func (s *Scheduler) Get(name string) (*LiveView, bool) {
	s.mu.RLock()
	v, ok := s.views[name]
	s.mu.RUnlock()
	return v, ok && v != nil
}

// NumViews returns the number of registered views.
func (s *Scheduler) NumViews() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.views)
}

// Names returns the registered view names in sorted order.
func (s *Scheduler) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.views))
	for n, v := range s.views {
		if v != nil {
			out = append(out, n)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Drop closes a view and removes it. A durable view's on-disk state is
// deleted with it — an explicit drop is a deletion, not a shutdown, and
// must not resurrect on the next Recover. (Scheduler.Close, by contrast,
// leaves durable state in place.)
func (s *Scheduler) Drop(name string) error {
	v, ok := s.Get(name)
	if !ok {
		return fmt.Errorf("live: no view %q", name)
	}
	s.drop(name)
	err := v.Close()
	if d := v.dur; d != nil {
		if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// Stats aggregates scheduler-wide and per-view counters.
func (s *Scheduler) Stats() SchedulerStats {
	st := SchedulerStats{
		MemoryBudget: s.cfg.MemoryBudget,
		EncodeErrors: s.encodeErrors.Load(),
		PerView:      make(map[string]ViewStats),
	}
	for _, name := range s.Names() {
		if v, ok := s.Get(name); ok {
			vs := v.Stats()
			st.PerView[name] = vs
			st.MemoryUsed += vs.SolutionBytes
			st.Views++
		}
	}
	return st
}

// Close flushes and closes every view (pending mutations are applied, the
// sessions released, spill files removed). The first error is returned;
// all views are closed regardless.
func (s *Scheduler) Close() error {
	var first error
	for _, name := range s.Names() {
		if v, ok := s.Get(name); ok {
			s.drop(name)
			if err := v.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
