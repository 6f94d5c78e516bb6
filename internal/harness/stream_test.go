package harness

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"jrs/internal/harness/chaos"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// sweepExperiments is the cache/branch/counter slice of the grid whose
// cells all probe default-config streams.
var sweepExperiments = []string{"fig2", "table2", "table3", "fig3", "fig4", "fig7", "fig8", "ablate-indirect"}

func lookupAll(t *testing.T, names []string) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %s not registered", name)
		}
		exps = append(exps, e)
	}
	return exps
}

func plansOf(exps []Experiment, o Options) []*Plan {
	plans := make([]*Plan, len(exps))
	for i, e := range exps {
		plans[i] = e.Plan(o)
	}
	return plans
}

// TestFusedMatchesPerGroup is the differential test of stream fusion:
// the Runner, which simulates each stream once for all of its probes,
// must render byte for byte what the per-group path renders — every
// group simulated alone through CellGroup.Run and delivered with
// Deliver, the path dist workers take. It also pins the deterministic
// counts: unique cells and the executions they fuse into.
func TestFusedMatchesPerGroup(t *testing.T) {
	for _, tc := range []struct {
		name         string
		o            Options
		exps         []Experiment
		cells, execs int64
	}{
		{"hello/all", helloOpts(), Experiments(), 34, 14},
		{"db/sweep", helloOpts("db"), lookupAll(t, sweepExperiments), 15, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fused := plansOf(tc.exps, tc.o)
			r := &Runner{Workers: 2}
			if err := r.RunPlans(fused...); err != nil {
				t.Fatal(err)
			}

			perGroup := plansOf(tc.exps, tc.o)
			for _, g := range GroupPlans(perGroup...) {
				raw, err := g.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", g.Key, err)
				}
				if err := g.Deliver(raw); err != nil {
					t.Fatal(err)
				}
			}
			for i, p := range perGroup {
				if err := p.Finish(); err != nil {
					t.Fatalf("%s: %v", tc.exps[i].Name, err)
				}
				if got, want := fused[i].Result().Render(), p.Result().Render(); got != want {
					t.Errorf("%s: fused render differs from per-group render:\n--- fused ---\n%s\n--- per-group ---\n%s",
						tc.exps[i].Name, got, want)
				}
			}

			if got := int64(r.Report().Cells); got != tc.cells {
				t.Errorf("cells = %d, want %d", got, tc.cells)
			}
			if got := r.Simulated(); got != tc.cells {
				t.Errorf("simulated = %d, want %d", got, tc.cells)
			}
			if got := r.Executions(); got != tc.execs {
				t.Errorf("executions = %d, want %d", got, tc.execs)
			}
		})
	}
}

// probePlan builds n probe cells on the hello/interp stream, each
// counting the stream's instructions into its slot. built counts probe
// constructions: one per member that takes part in an engine run.
func probePlan(n int, built *atomic.Int64) (*Plan, []uint64) {
	w, _ := workloads.ByName("hello")
	s := stream{w, w.BenchN, ModeInterp}
	totals := make([]uint64, n)
	p := newPlan("probe", nil)
	for i := range totals {
		key := CellKey{Experiment: "probe", Workload: w.Name, Scale: s.scale, Mode: s.mode.String(),
			Config: fmt.Sprintf("p%d", i)}
		p.addProbe(key, &totals[i], s, func() (trace.Sink, func() (any, error)) {
			built.Add(1)
			c := &trace.Counter{}
			return c, func() (any, error) { return c.Total, nil }
		})
	}
	return p, totals
}

// TestFusedChaosPanicFailsOnlyItsMember: a chaos panic on one member of
// a 3-probe execution fails that member's attempt alone. Its siblings
// share attempt 1's engine run and commit; the faulted member retries
// by itself on attempt 2, or fails for good without retries.
func TestFusedChaosPanicFailsOnlyItsMember(t *testing.T) {
	var built atomic.Int64
	p, totals := probePlan(3, &built)
	keys := p.Keys()
	inj := chaos.New(chaos.Spec{Seed: 1, PanicRate: 1, UpTo: 1, Cell: keys[1].String()})

	var order []CellKey
	r := &Runner{Workers: 1, Retries: 1, Chaos: inj,
		Progress: func(k CellKey, _ bool) { order = append(order, k) }}
	if err := r.RunPlans(p); err != nil {
		t.Fatal(err)
	}
	if want := []CellKey{keys[0], keys[2], keys[1]}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("commit order = %v, want %v (siblings at attempt 1, faulted member at attempt 2)", order, want)
	}
	if got := built.Load(); got != 3 {
		t.Errorf("probes built = %d, want 3 (two on attempt 1, one on attempt 2)", got)
	}
	if r.Retried() != 1 || r.Simulated() != 3 || r.Executions() != 1 {
		t.Errorf("retried=%d simulated=%d executions=%d, want 1/3/1", r.Retried(), r.Simulated(), r.Executions())
	}
	if totals[0] == 0 || totals[0] != totals[1] || totals[1] != totals[2] {
		t.Errorf("members observed different streams: %v", totals)
	}

	p2, totals2 := probePlan(3, &built)
	r2 := &Runner{Workers: 1, KeepGoing: true, Chaos: inj}
	if err := r2.RunPlans(p2); err != nil {
		t.Fatal(err)
	}
	rep := r2.Report()
	if rep.Completed != 2 || rep.Failed != 1 || len(rep.Failures) != 1 {
		t.Fatalf("report = %+v, want 2 completed / 1 failed", rep)
	}
	if f := rep.Failures[0]; f.Key != keys[1] || f.Cause != CausePanic || f.Attempts != 1 {
		t.Errorf("failure = %+v, want %v panic at attempt 1", f, keys[1])
	}
	if totals2[0] != totals[0] || totals2[1] != 0 || totals2[2] != totals[2] {
		t.Errorf("totals = %v, want siblings %d and the faulted slot empty", totals2, totals[0])
	}
}

// TestFusedResumeSimulatesOnlyUnjournaled: under Resume, members of an
// execution that the journal records are served from the cache and
// left out of the engine run; only the unjournaled member simulates.
func TestFusedResumeSimulatesOnlyUnjournaled(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int64
	p1, want := probePlan(3, &built)
	if err := (&Runner{Workers: 1, Cache: cache}).RunPlans(p1); err != nil {
		t.Fatal(err)
	}
	// The cache holds all three members; the journal only the first two.
	j, err := OpenJournal(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, k := range p1.Keys()[:2] {
		if err := j.Record(k.Hash(), k); err != nil {
			t.Fatal(err)
		}
	}

	built.Store(0)
	p2, got := probePlan(3, &built)
	r := &Runner{Workers: 1, Cache: cache, Journal: j, Resume: true}
	if err := r.RunPlans(p2); err != nil {
		t.Fatal(err)
	}
	if r.Simulated() != 1 || r.CacheHits() != 2 || r.Executions() != 1 || built.Load() != 1 {
		t.Errorf("simulated=%d cached=%d executions=%d built=%d, want 1/2/1/1",
			r.Simulated(), r.CacheHits(), r.Executions(), built.Load())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("resumed totals %v, want %v", got, want)
	}
}

// TestFusedCountsMemberGroups: Simulated and CacheHits count member
// groups, not executions. fig4's interp and JIT cells are table3's, so
// four experiments on hello are 7 unique cells over 3 streams.
func TestFusedCountsMemberGroups(t *testing.T) {
	dir := t.TempDir()
	exps := lookupAll(t, []string{"fig2", "table2", "table3", "fig4"})
	for pass, want := range []struct{ simulated, cached, execs int64 }{{7, 0, 3}, {0, 7, 0}} {
		cache, err := OpenResultCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Workers: 2, Cache: cache}
		if err := r.RunPlans(plansOf(exps, helloOpts())...); err != nil {
			t.Fatal(err)
		}
		if r.Simulated() != want.simulated || r.CacheHits() != want.cached || r.Executions() != want.execs {
			t.Errorf("pass %d: simulated=%d cached=%d executions=%d, want %d/%d/%d", pass,
				r.Simulated(), r.CacheHits(), r.Executions(), want.simulated, want.cached, want.execs)
		}
	}
}
