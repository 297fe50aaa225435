package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
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
// answer queries fully in parallel. A durable view that goes down comes
// back through Get.
type Scheduler struct {
	cfg SchedulerConfig

	// encodeErrors counts response bodies the API failed to deliver.
	encodeErrors atomic.Int64

	mu    sync.RWMutex
	views map[string]*slot
}

// slot is one registered name: its view, serving or down (nil while
// reserved; guarded by Scheduler.mu), and its reopens. reopen is held by
// the one reopen running, and by Drop and Close; Get only tries it. streak
// (guarded by reopen) counts the backoff's attempts, next is when one is
// due (unix ns).
type slot struct {
	v              *LiveView
	reopen         sync.Mutex
	streak         int
	next, restarts atomic.Int64
}

// A down view's first reopen is due at once, each further one restartBase
// << n after the one before, up to restartMax. The backoff starts over only
// once a view stayed up restartMax past its due time, so a fault that lets
// the open succeed and fails the next write backs off too.
const (
	restartBase = 50 * time.Millisecond
	restartMax  = 5 * time.Second
)

// The states ViewStats.State reports, in view_state's numbering.
var viewStates = [...]string{"serving", "restarting", "failed"}

// restartable reports whether a view down with err comes back: a durable
// one (an in-memory view has nothing to reopen from), down for any cause
// but its owner's Close, a form this binary does not read and a log whose
// base no snapshot covers.
func restartable(durable bool, err error) bool {
	return durable && !errors.Is(err, errClosed) && !errors.Is(err, errUnknownForm) && !errors.Is(err, errUncovered)
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
	s := &Scheduler{cfg: cfg, views: make(map[string]*slot)}
	if cfg.Obs != nil {
		cfg.Obs.RegisterCollector(s.collect)
	}
	return s
}

// collect emits the scheduler's stats as exporter gauges: the aggregate
// numbers unlabeled, the per-view ViewStats with a view="<name>" label.
// State is exported as view_state, its index in viewStates; LastError's
// text is in the HTTP API's stats endpoint.
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
		emit("view_restarts", l, float64(vs.Restarts))
		emit("view_state", l, float64(slices.Index(viewStates[:], vs.State)))
	}
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
	vcfg.fs = s.cfg.DefaultView.normalized().fs
	if err := vcfg.Validate(); err != nil {
		return nil, err
	}
	// Optimistic admission: each initial mutation contributes at most two
	// fresh solution entries (an edge's endpoints).
	if b := s.cfg.MemoryBudget; b > 0 {
		est := int64(len(initial)) * 2 * record.EncodedSize
		if st := s.Stats(); st.MemoryUsed+est > b {
			return nil, fmt.Errorf("%w: %d views use %d bytes, view %q estimated at %d, budget %d",
				ErrMemoryBudget, st.Views, st.MemoryUsed, name, est, b)
		}
	}

	// A scheduler with a data directory serves durable views: the config
	// is routed through NewView and the maintainer recipe is persisted
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

	sl, err := s.reserve(name)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(vcfg.DataDir, name)
	if vcfg.Durable {
		// NewView would reopen leftovers instead of building `initial`: an
		// uncommitted create or drop is deleted, and a committed view that
		// is not served (not recovered yet, or its Drop failed) refused.
		committed, err := clearUncommitted(vcfg.fs, dir)
		if err == nil && committed {
			err = fmt.Errorf("live: view %q has committed state under %s that is not being served", name, vcfg.DataDir)
		}
		if err != nil {
			s.drop(name)
			return nil, err
		}
	}

	v, err := NewView(name, m, initial, vcfg)
	if err == nil && vcfg.Durable {
		if err = saveRecipe(vcfg.fs, dir, m, vcfg); err != nil {
			v.Close()
			removeViewDir(vcfg.fs, dir)
		}
	}
	if err != nil {
		s.drop(name)
		return nil, err
	}
	s.install(sl, v)

	// Post-build enforcement against the real footprint.
	if b := s.cfg.MemoryBudget; b > 0 {
		if used := s.Stats().MemoryUsed; used > b {
			// Admission failed, so nothing was acknowledged; an orphaned
			// durable directory would resurrect the view on Recover.
			s.remove(name, sl, true)
			return nil, fmt.Errorf("%w: view %q would bring usage to %d bytes, budget %d",
				ErrMemoryBudget, name, used, b)
		}
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

// errUnknownForm marks a form this binary does not read: an algorithm it
// has no maintainer for, a meta.json field it does not know, a snapshot
// that is not one file. It is rejected whole, never partly read.
var errUnknownForm = errors.New("live: unknown form")

// maintainer rebuilds the Maintainer the recipe names.
func (r recipe) maintainer() (Maintainer, error) {
	switch {
	case r.Job != nil:
		return newJobMaintainer(*r.Job)
	case r.Algorithm == "cc":
		return CC(), nil
	case r.Algorithm == "sssp":
		return SSSP(r.Source), nil
	}
	return nil, fmt.Errorf("%w: algorithm %q", errUnknownForm, r.Algorithm)
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

func saveRecipe(fs fsys, dir string, m Maintainer, cfg ViewConfig) error {
	r, err := recipeOf(m, cfg)
	if err != nil {
		return err
	}
	return writeFileDurable(fs, filepath.Join(dir, metaFileName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(r)
	})
}

// clearUncommitted reports whether dir holds a committed view: a meta.json
// beside a log or a snapshot. Any other view files are a create that
// crashed before its commit marker or a drop that crashed after deleting
// it; nothing in them is acknowledged, so they are deleted.
func clearUncommitted(fs fsys, dir string) (bool, error) {
	vf, err := readViewDir(fs, dir)
	if err != nil {
		return false, err
	}
	state := vf.wal || len(vf.snaps) > 0
	if vf.meta && state {
		return true, nil
	}
	if vf.meta || state || len(vf.junk) > 0 {
		return false, removeViewDir(fs, dir)
	}
	return false, nil
}

// Recover opens every committed view under the scheduler's data directory
// (open) and registers it under its directory's name, serving or, if its
// open failed, down (Get); what an uncommitted create or drop left is
// deleted. It returns the number of views serving and the failures.
func (s *Scheduler) Recover() (int, error) {
	if s.cfg.DataDir == "" {
		return 0, nil
	}
	base := s.cfg.DefaultView.normalized()
	base.Durable, base.DataDir = true, s.cfg.DataDir
	entries, err := base.fs.ReadDir(s.cfg.DataDir)
	if err != nil && !notExist(err) {
		return 0, err
	}
	n, errs := 0, []error{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var sl *slot
		committed, err := clearUncommitted(base.fs, filepath.Join(s.cfg.DataDir, e.Name()))
		if err == nil && committed {
			if sl, err = s.reserve(e.Name()); err == nil {
				var v *LiveView
				if v, err = s.open(e.Name(), base, false); err == nil {
					n++
				}
				s.install(sl, v)
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return n, errors.Join(errs...)
}

// open is the one way a scheduler brings a committed view back, at startup
// and after a down: the recipe beside the log names the maintainer and the
// config over base, and NewView recovers the view from its snapshot and
// log. A view that fails to open is a downView; its error names the view
// once, here for open's own steps and in NewView for the recovery. After a
// down, open first syncs the view's directory, as the view may have made a
// rename whose sync failed, and dials each worker once, for at most a
// second: the scheduler's backoff retries, not distrib.DialWorker's startup
// policy. A clean restart syncs nothing, as it writes nothing.
func (s *Scheduler) open(name string, base ViewConfig, afterDown bool) (v *LiveView, err error) {
	defer func() {
		if err != nil {
			v = downView(name, base, err)
		}
	}()
	named := func(err error) (*LiveView, error) { return nil, fmt.Errorf("live: recovering view %q: %w", name, err) }
	dir := filepath.Join(base.DataDir, name)
	if afterDown {
		if base.dial == nil {
			base.dial = func(addr string, _ time.Duration) (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
		}
		if err := base.fs.SyncDir(dir); err != nil {
			return named(err)
		}
	}
	f, err := base.fs.Open(filepath.Join(dir, metaFileName))
	if err != nil {
		return named(err)
	}
	var meta recipe
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	err = dec.Decode(&meta)
	f.Close()
	if err != nil {
		return named(fmt.Errorf("meta: %w: %w", errUnknownForm, err))
	}
	m, err := meta.maintainer()
	if err != nil {
		return named(err)
	}
	return NewView(name, m, nil, meta.applyTo(base))
}

// reserve registers an empty slot under name for a build.
func (s *Scheduler) reserve(name string) (*slot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.views[name]; dup {
		return nil, fmt.Errorf("live: view %q already exists", name)
	}
	sl := &slot{}
	s.views[name] = sl
	return sl, nil
}

// install makes v sl's view, and sl the slot v reports its state from.
func (s *Scheduler) install(sl *slot, v *LiveView) {
	v.sl = sl
	s.mu.Lock()
	sl.v = v
	s.mu.Unlock()
}

// drop removes a name from the registry without closing the view.
func (s *Scheduler) drop(name string) {
	s.mu.Lock()
	delete(s.views, name)
	s.mu.Unlock()
}

// lookup returns name's slot and view without reopening it.
func (s *Scheduler) lookup(name string) (sl *slot, v *LiveView) {
	s.mu.RLock()
	if sl = s.views[name]; sl != nil {
		v = sl.v
	}
	s.mu.RUnlock()
	return sl, v
}

// Get returns the view registered under name, serving or down. A down
// view that is restartable is reopened on the caller's goroutine once its
// attempt is due — Close, a crash, then open — and the fresh view returned;
// a caller finding a reopen running, or none due, gets the down view and
// its typed answers. A serving view costs one atomic load more.
func (s *Scheduler) Get(name string) (*LiveView, bool) {
	sl, v := s.lookup(name)
	if v != nil && v.down.Load() != nil {
		v = s.reopen(name, sl, v)
	}
	return v, v != nil
}

func (s *Scheduler) reopen(name string, sl *slot, v *LiveView) *LiveView {
	if !restartable(v.cfg.Durable, v.downErr()) || time.Now().UnixNano() < sl.next.Load() || !sl.reopen.TryLock() {
		return v
	}
	defer sl.reopen.Unlock()
	if cur, cv := s.lookup(name); cur != sl || cv != v {
		return v // dropped, or reopened, meanwhile
	}
	now := time.Now()
	if now.UnixNano() >= sl.next.Load()+int64(restartMax) {
		sl.streak = 0
	}
	sl.next.Store(now.Add(min(restartBase<<min(sl.streak, 7), restartMax)).UnixNano())
	sl.streak++
	sl.restarts.Add(1)
	v.Close()
	nv, _ := s.open(name, v.cfg, true)
	s.install(sl, nv)
	return nv
}

// Names returns the registered view names, serving or down, sorted.
func (s *Scheduler) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.views))
	for n, sl := range s.views {
		if sl.v != nil {
			out = append(out, n)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Drop closes a view, serving or down, and removes it. A durable view's
// on-disk state is deleted with it — an explicit drop is a deletion, not a
// shutdown, and must not resurrect on the next Recover. (Scheduler.Close,
// by contrast, leaves durable state in place.) Close writes nothing, so
// the deletion is all the file work a Drop does.
func (s *Scheduler) Drop(name string) error {
	sl, v := s.lookup(name)
	if v == nil {
		return fmt.Errorf("live: no view %q", name)
	}
	return s.remove(name, sl, true)
}

// remove waits out a reopen of sl, unregisters it and closes its view;
// with purge, a durable view's directory is deleted after.
func (s *Scheduler) remove(name string, sl *slot, purge bool) error {
	sl.reopen.Lock()
	defer sl.reopen.Unlock()
	s.mu.Lock()
	v, ours := sl.v, s.views[name] == sl
	if ours {
		delete(s.views, name)
	}
	s.mu.Unlock()
	if !ours {
		return fmt.Errorf("live: no view %q", name)
	}
	err := v.Close()
	if purge && v.cfg.Durable {
		err = errors.Join(err, removeViewDir(v.cfg.fs, filepath.Join(v.cfg.DataDir, name)))
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
		if _, v := s.lookup(name); v != nil {
			vs := v.Stats()
			st.PerView[name] = vs
			st.MemoryUsed += vs.SolutionBytes
			st.Views++
		}
	}
	return st
}

// Close closes every view, serving or down (LiveView.Close: pending
// batches dropped, logs closed, sessions hung up, spill files removed), and
// writes nothing: a durable view's acknowledged batches are in its log,
// and the next Recover replays them. The first error is returned; all
// views are closed regardless.
func (s *Scheduler) Close() error {
	var first error
	for _, name := range s.Names() {
		if sl, v := s.lookup(name); v != nil {
			if err := s.remove(name, sl, false); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
