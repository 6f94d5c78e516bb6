package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"jrs/internal/harness/chaos"
	"jrs/internal/jit/codecache"
	"jrs/internal/workloads"
)

// CacheSchema versions the cell payload encoding. Bump it whenever a
// simulator or an experiment's cell payload changes meaning, so stale
// entries in a persistent ResultCache stop matching.
const CacheSchema = 2

// CellKey identifies one independent simulation cell of the paper grid:
// which experiment needs it, which workload it runs, at what input
// scale, under which execution mode(s), and with what experiment-level
// configuration. Two cells with equal keys are interchangeable, which is
// both the dedup rule inside one run (Figure 10 reuses Figure 9's cells)
// and the content-address of the persistent result cache.
type CellKey struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	Scale      int    `json:"scale"`
	Mode       string `json:"mode"`
	Config     string `json:"config,omitempty"`
}

// String renders the key for progress lines and debugging.
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s@%d/%s", k.Experiment, k.Workload, k.Scale, k.Mode)
	if k.Config != "" {
		s += "/" + k.Config
	}
	return s
}

// Hash returns the content address of the cell: a hex SHA-256 over the
// schema version and every key field.
func (k CellKey) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "jrs-cell\x00%d\x00%s\x00%s\x00%d\x00%s\x00%s",
		CacheSchema, k.Experiment, k.Workload, k.Scale, k.Mode, k.Config)
	return hex.EncodeToString(h.Sum(nil))
}

// Cell is one schedulable simulation unit: a key, the simulation closure
// producing a JSON-serializable payload, and the destination the payload
// is decoded into. Every payload — fresh or cached — passes through the
// same JSON round trip, so a run never observes different values
// depending on where a cell's result came from. The closure receives the
// attempt's context and must pass it down (RunCtx) so the supervisor's
// watchdog can cancel a hung simulation cooperatively. A probe cell
// (addProbe) also names its stream and probe, so the Runner can fuse it
// with the other probes of that stream.
type Cell struct {
	Key    CellKey
	sim    func(context.Context) (any, error)
	stream *stream
	probe  probe
	dest   any
}

// Plan is an experiment's enumerated grid: its cells plus the result the
// cells fill in and an optional aggregation step that runs after every
// cell completed. Cell destinations are preallocated slots in the result,
// so assembly order never depends on completion order.
type Plan struct {
	experiment string
	cells      []Cell
	result     Renderer
	finish     func() error
}

func newPlan(experiment string, result Renderer) *Plan {
	return &Plan{experiment: experiment, result: result}
}

// add appends a cell. dest must be a pointer; the cell payload (from the
// simulation or the cache) is JSON-decoded into it.
func (p *Plan) add(key CellKey, dest any, sim func(context.Context) (any, error)) {
	p.cells = append(p.cells, Cell{Key: key, sim: sim, dest: dest})
}

// Keys returns the plan's cell keys in enumeration order.
func (p *Plan) Keys() []CellKey {
	keys := make([]CellKey, len(p.cells))
	for i, c := range p.cells {
		keys[i] = c.Key
	}
	return keys
}

// Result returns the plan's (possibly not yet filled) result.
func (p *Plan) Result() Renderer { return p.result }

// resolveScale returns the effective input scale a cell runs at. The
// zero "workload default" is resolved to the concrete DefaultN so cache
// keys stay meaningful.
func resolveScale(o Options, w workloads.Workload) int {
	if s := o.scaleFor(w); s != 0 {
		return s
	}
	return w.DefaultN
}

// Runner executes plan cells on a bounded worker pool under
// supervision: each cell attempt runs with panic isolation (a panicking
// simulator becomes a structured CellError, not a dead process), an
// optional watchdog deadline, and bounded retry with deterministic
// backoff for transient failures. The unit of work is an execution:
// the pending probe cells of one stream share a single engine run, each
// with its own sinks, while every other cell runs alone. Executions
// never share mutable state; the merge into experiment results is
// deterministic because each cell decodes into a preallocated slot and
// post-aggregation runs in enumeration order.
type Runner struct {
	// Workers bounds concurrent executions; 0 (or negative) means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, short-circuits cells whose key hash has a
	// stored payload and persists fresh payloads for the next run.
	Cache *ResultCache
	// CodeCache, when non-nil, is the shared translation cache this run's
	// engines were configured with (via harness.SetCodeCache or explicit
	// core.Config wiring); the runner only surfaces its statistics in
	// Report() — attachment to engines happens in RunCtx.
	CodeCache *codecache.Cache
	// Progress, when non-nil, is called (serialized) as each unique cell
	// completes; cached reports whether the result came from the cache.
	Progress func(key CellKey, cached bool)

	// CellTimeout bounds one attempt of one execution — a stream run
	// shared by its probe cells, or one opaque cell (0 = no watchdog).
	// The deadline reaches the engines through the attempt's context and
	// the cooperative core.Config.Cancel hook, so an expired attempt
	// returns a retryable timeout error instead of hanging its worker
	// forever.
	CellTimeout time.Duration
	// Retries bounds re-attempts after a retryable failure (0 = fail on
	// the first error). Deterministic simulation errors never retry;
	// panics, watchdog timeouts, transient I/O and injected faults do.
	Retries int
	// BackoffBase, when positive, sleeps min(BackoffBase << (k-1),
	// BackoffMax) before the k-th retry of a cell — deterministic
	// exponential backoff with no jitter, so supervised runs stay
	// reproducible. Zero disables sleeping (the library/test default).
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay (0 = BackoffBase << 6).
	BackoffMax time.Duration
	// KeepGoing switches to degraded mode: instead of stopping at the
	// first failed cell, the runner drains every cell, fills all slots
	// that succeeded, and reports failures through Report(). RunPlans
	// then returns nil; callers decide what a degraded run is worth
	// (cmd/jrs exits 3).
	KeepGoing bool
	// Journal, when non-nil, records each completed cell (fsynced
	// append) so an interrupted run can resume.
	Journal *Journal
	// Resume trusts only journaled cells: a cache entry whose hash the
	// journal does not record is ignored and the cell re-simulates.
	// Requires Cache and Journal to be useful.
	Resume bool
	// Chaos, when non-nil, injects deterministic faults (panics, hangs,
	// transient errors, cache corruption) into cell attempts — the test
	// vehicle for everything above.
	Chaos *chaos.Injector

	// sleep replaces time.Sleep in tests (nil = time.Sleep).
	sleep func(time.Duration)

	simulated  atomic.Int64
	executions atomic.Int64
	cacheHits  atomic.Int64
	retried    atomic.Int64
	progressMu sync.Mutex

	reportMu  sync.Mutex
	cells     int
	attempted int
	failures  []CellFailure
}

// Simulated returns how many cells this runner actually simulated
// (cache misses included, cache hits excluded).
func (r *Runner) Simulated() int64 { return r.simulated.Load() }

// Executions returns how many executions simulated at least one cell:
// stream runs shared by a stream's probes, plus opaque cells run alone.
// Simulated()/Executions() is the average fan-out of one engine run.
func (r *Runner) Executions() int64 { return r.executions.Load() }

// CacheHits returns how many cells were served from the result cache.
func (r *Runner) CacheHits() int64 { return r.cacheHits.Load() }

// Retried returns how many extra cell attempts supervision made beyond
// each cell's first.
func (r *Runner) Retried() int64 { return r.retried.Load() }

// CellGroup is a set of cells sharing one key: simulated (or fetched)
// once, decoded into every member's destination. The local Runner and
// the distributed coordinator/worker split the same group differently:
// the Runner does both halves in-process, a dist worker calls Run (it
// holds the sims) while the coordinator calls Deliver (it holds the
// destinations).
type CellGroup struct {
	// Key identifies the cell; Key.Hash() is its wire and cache address.
	Key    CellKey
	sim    func(context.Context) (any, error)
	stream *stream
	probe  probe
	dests  []any
	order  int // lowest cell index, for deterministic error selection
}

// Order returns the group's position in plan enumeration order — the
// deterministic tiebreak for error selection and failure reporting.
func (g *CellGroup) Order() int { return g.order }

// Run executes the group's simulation under ctx and marshals the
// payload. No recovery: callers own their panic-isolation boundary.
func (g *CellGroup) Run(ctx context.Context) (json.RawMessage, error) {
	payload, err := g.sim(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: encode cell payload: %w", g.Key, err)
	}
	return raw, nil
}

// Deliver decodes a payload (fresh, cached, or received over the wire)
// into every member cell's destination slot.
func (g *CellGroup) Deliver(raw json.RawMessage) error {
	for _, dest := range g.dests {
		if err := json.Unmarshal(raw, dest); err != nil {
			return fmt.Errorf("%s: decode cell payload: %w", g.Key, err)
		}
	}
	return nil
}

// GroupPlans collapses the cells of the given plans into unique groups
// in enumeration order: duplicate keys across plans (Figure 10 reuses
// Figure 9's cells) become one group with every duplicate's destination
// attached.
func GroupPlans(plans ...*Plan) []*CellGroup {
	var groups []*CellGroup
	index := make(map[string]*CellGroup)
	order := 0
	for _, p := range plans {
		for i := range p.cells {
			c := &p.cells[i]
			hash := c.Key.Hash()
			g, ok := index[hash]
			if !ok {
				g = &CellGroup{Key: c.Key, sim: c.sim, stream: c.stream, probe: c.probe, order: order}
				index[hash] = g
				groups = append(groups, g)
			}
			g.dests = append(g.dests, c.dest)
			order++
		}
	}
	return groups
}

// RunPlans executes every cell of every plan, then runs each plan's
// aggregation step in plan order. Duplicate keys across plans collapse
// to one simulation. The returned error is the one belonging to the
// earliest cell in enumeration order, independent of scheduling; in
// KeepGoing mode failures are collected into Report() instead and the
// returned error is nil.
func (r *Runner) RunPlans(plans ...*Plan) error {
	groups := GroupPlans(plans...)
	order := 0
	for _, p := range plans {
		order += len(p.cells)
	}

	if err := r.runGroups(groups); err != nil {
		return err
	}
	for _, p := range plans {
		if p.finish == nil {
			continue
		}
		if err := p.Finish(); err != nil {
			if r.KeepGoing {
				// Degraded mode: a failed aggregation (possibly fed
				// zero-valued slots from failed cells) is reported, not
				// fatal; the plan renders whatever state it reached.
				r.recordFailure(order, CellFailure{
					Key:      CellKey{Experiment: p.experiment, Config: "aggregate"},
					Attempts: 1,
					Cause:    CauseAggregate,
					Err:      err.Error(),
				})
				order++
				continue
			}
			return fmt.Errorf("%s: %w", p.experiment, err)
		}
	}
	return nil
}

// Finish runs the plan's aggregation step (if any) with panic
// isolation. The Runner calls it after every cell completed; the
// distributed coordinator calls it in plan order once the grid drains.
func (p *Plan) Finish() error {
	if p.finish == nil {
		return nil
	}
	return guard(p.finish)
}

// runGroups fuses the groups into executions and drains them with
// Workers goroutines, claiming executions in the enumeration order of
// their first member. Early-stop semantics: once a worker claims an
// execution, every member runs to completion and records its outcome
// (results, counters, progress, journal) — a failure elsewhere only
// stops workers from claiming NEW executions. Members of executions
// never claimed are accounted as skipped in Report().
func (r *Runner) runGroups(groups []*CellGroup) error {
	execs := fuse(groups)
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(execs) {
		workers = len(execs)
	}
	r.reportMu.Lock()
	r.cells += len(groups)
	r.reportMu.Unlock()
	if len(execs) == 0 {
		return nil
	}

	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		bestErr error
		bestIdx int
	)
	fail := func(g *CellGroup, ce *CellError) {
		r.recordFailure(g.order, CellFailure{
			Key:      ce.Key,
			Attempts: ce.Attempts,
			Cause:    ce.Cause,
			Err:      ce.Err.Error(),
		})
		mu.Lock()
		if bestErr == nil || g.order < bestIdx {
			bestErr, bestIdx = fmt.Errorf("%s: %w", g.Key.Experiment, ce), g.order
		}
		mu.Unlock()
		if !r.KeepGoing {
			stop.Store(true)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The stop check precedes the claim: an execution is
				// either never claimed (skipped) or fully supervised —
				// claimed work is never silently dropped mid-cell.
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(execs) {
					return
				}
				x := execs[i]
				r.reportMu.Lock()
				r.attempted += len(x.members)
				r.reportMu.Unlock()
				pprof.Do(context.Background(), x.labels(), func(ctx context.Context) {
					for j, ce := range r.superviseExecution(ctx, x) {
						if ce != nil {
							fail(x.members[j], ce)
						}
					}
				})
			}
		}()
	}
	wg.Wait()
	if r.KeepGoing {
		return nil
	}
	return bestErr
}

// superviseExecution resolves every member of one execution under the
// full supervision policy: panic isolation, watchdog deadline,
// classification and bounded retry with deterministic backoff, all per
// member. Members whose attempt failed retryably retry together on the
// next attempt; the rest leave the pending set. The result holds each
// member's terminal failure (nil: its payload reached every
// destination), aligned with x.members.
func (r *Runner) superviseExecution(ctx context.Context, x *execution) []*CellError {
	out := make([]*CellError, len(x.members))
	pending := make([]int, len(x.members))
	for i := range pending {
		pending[i] = i
	}
	ran := false
	for attempt := 1; len(pending) > 0; attempt++ {
		errs, simulated := r.attemptExecution(ctx, x, pending, attempt)
		ran = ran || simulated
		var retry []int
		for k, i := range pending {
			err := errs[k]
			if err == nil {
				continue
			}
			cause, retryable := Classify(err)
			if !retryable || attempt > r.Retries {
				out[i] = &CellError{Key: x.members[i].Key, Attempts: attempt, Cause: cause, Err: err, Stack: panicStack(err)}
				continue
			}
			r.retried.Add(1)
			retry = append(retry, i)
		}
		if len(retry) > 0 {
			r.sleepFor(backoffDelay(r.BackoffBase, r.BackoffMax, attempt))
		}
		pending = retry
	}
	if ran {
		r.executions.Add(1)
	}
	return out
}

// attemptExecution makes one isolated attempt at the pending members of
// an execution: per-member cache lookup (journal-gated under Resume) and
// chaos injection, one engine run under the watchdog context for the
// members that still need simulating, then per-member persistence,
// fan-out decode, journaling and progress in enumeration order. An
// injected fault fails only its own member; an engine failure fails
// every member that shared the engine. It returns each pending member's
// error and whether any member committed a fresh payload.
func (r *Runner) attemptExecution(ctx context.Context, x *execution, pending []int, attempt int) (errs []error, simulated bool) {
	if r.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.CellTimeout)
		defer cancel()
	}

	errs = make([]error, len(pending))
	faults := make([]chaos.Kind, len(pending))
	raws := make([]json.RawMessage, len(pending))
	cached := make([]bool, len(pending))
	var run, hung []int // indices into pending
	for k, i := range pending {
		g := x.members[i]
		if r.Chaos != nil {
			faults[k] = r.Chaos.Decide(g.Key.String(), attempt)
		}
		if r.Cache != nil && (!r.Resume || (r.Journal != nil && r.Journal.Done(g.Key.Hash()))) {
			raws[k], cached[k] = r.Cache.Get(g.Key)
		}
		if cached[k] {
			continue
		}
		switch faults[k] {
		case chaos.Panic:
			errs[k] = newPanicError(chaos.PanicValue{Cell: g.Key.String(), Attempt: attempt})
		case chaos.Transient:
			errs[k] = &chaos.InjectedError{Cell: g.Key.String(), Attempt: attempt}
		case chaos.Hang:
			hung = append(hung, k)
		default:
			run = append(run, k)
		}
	}

	if len(run) > 0 {
		members := make([]*CellGroup, len(run))
		for j, k := range run {
			members[j] = x.members[pending[k]]
		}
		var payloads []any
		var readErrs []error
		err := guard(func() (err error) {
			payloads, readErrs, err = x.simulate(ctx, members)
			return err
		})
		for j, k := range run {
			g := members[j]
			switch {
			case err != nil:
				errs[k] = simError(ctx, g.Key, err)
			case readErrs[j] != nil:
				errs[k] = simError(ctx, g.Key, readErrs[j])
			default:
				raws[k], errs[k] = json.Marshal(payloads[j])
				if errs[k] != nil {
					errs[k] = fmt.Errorf("%s: encode cell payload: %w", g.Key, errs[k])
				}
			}
		}
	}
	// A hung member blocks the attempt until the watchdog fires; its
	// siblings' engine run has already finished by then.
	for _, k := range hung {
		key := x.members[pending[k]].Key
		if _, ok := ctx.Deadline(); !ok {
			errs[k] = fmt.Errorf("%s: chaos hang injected without a watchdog (set a cell timeout)", key)
			continue
		}
		<-ctx.Done()
		errs[k] = fmt.Errorf("%s: %w", key, ctx.Err())
	}

	for k, i := range pending {
		if errs[k] != nil {
			continue
		}
		g := x.members[i]
		simulated = simulated || !cached[k]
		errs[k] = guard(func() error { return r.commit(g, raws[k], cached[k], faults[k]) })
	}
	return errs, simulated
}

// simError attributes a simulation failure to one member. When the
// watchdog fired mid-simulation it classifies as a timeout even if the
// engine dressed the cancellation in workload context.
func simError(ctx context.Context, key CellKey, err error) error {
	if cause := ctx.Err(); cause != nil {
		return fmt.Errorf("%s: %w (sim: %v)", key, cause, err)
	}
	return err
}

// commit records one member's payload: a fresh one is counted and
// persisted (then torn, under an injected Corrupt fault), a cached one
// counted as a hit; either way it is decoded into every destination,
// journaled and reported to Progress.
func (r *Runner) commit(g *CellGroup, raw json.RawMessage, cached bool, fault chaos.Kind) error {
	if cached {
		r.cacheHits.Add(1)
	} else {
		r.simulated.Add(1)
		if r.Cache != nil {
			if err := r.Cache.Put(g.Key, raw); err != nil {
				return fmt.Errorf("%s: persist cell payload: %w", g.Key, err)
			}
			if fault == chaos.Corrupt {
				// Simulate a torn write by a crashed peer: the in-memory
				// payload stays good (this run's result is unaffected),
				// but the stored entry must degrade to a miss next read.
				if err := r.Cache.Corrupt(g.Key); err != nil {
					return fmt.Errorf("%s: chaos corrupt: %w", g.Key, err)
				}
			}
		}
	}
	if err := g.Deliver(raw); err != nil {
		return err
	}
	if r.Journal != nil {
		if err := r.Journal.Record(g.Key.Hash(), g.Key); err != nil {
			return fmt.Errorf("%s: %w", g.Key, err)
		}
	}
	if r.Progress != nil {
		r.progressMu.Lock()
		defer r.progressMu.Unlock()
		r.Progress(g.Key, cached)
	}
	return nil
}

// sleepFor waits d (0 is free), via the test hook when set.
func (r *Runner) sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.sleep != nil {
		r.sleep(d)
		return
	}
	time.Sleep(d)
}

// recordFailure appends a failure at the given enumeration order.
func (r *Runner) recordFailure(order int, f CellFailure) {
	f.order = order
	r.reportMu.Lock()
	r.failures = append(r.failures, f)
	r.reportMu.Unlock()
}

// serialRunner is the default execution vehicle for the typed
// experiment entry points (Fig1, Table2, ...): one worker, no cache —
// the exact behavior of the historical serial loops.
func serialRunner() *Runner { return &Runner{Workers: 1} }
