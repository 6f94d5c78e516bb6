package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"jrs/internal/harness"
	"jrs/internal/harness/dist"
	"jrs/internal/workloads"
)

// spec is one benchmark workload: a fixed set of registered experiments
// run at quick scale over a set of programs.
type spec struct {
	name string
	// experiments lists the grid (nil = every registered experiment).
	experiments []string
	// fixedPrograms, when set, overrides the -programs pair.
	fixedPrograms []string
	// dist runs each pass through in-process dist coordinators instead
	// of a local Runner.
	dist bool
}

var specs = []spec{
	{name: "sweep", experiments: []string{"fig2", "table2", "table3", "fig3", "fig4", "fig7", "fig8", "ablate-indirect"}},
	{name: "superscalar", experiments: []string{"fig9", "fig10", "ablate-ooo"}},
	{name: "dist-hello", fixedPrograms: []string{"hello"}, dist: true},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// grid is a workload resolved against the registry: its programs, its
// experiments and their reference reports.
type grid struct {
	spec     spec
	programs []workloads.Workload
	exps     []harness.Experiment
	refs     map[string]string // experiment name → reference report
}

func (g *grid) opts() harness.Options {
	return harness.Options{Quick: true, Workloads: g.programs}
}

// programKey names the grid's program set in reference paths.
func (g *grid) programKey() string {
	var names []string
	for _, w := range g.programs {
		names = append(names, w.Name)
	}
	return strings.Join(names, "-")
}

// resolveGrid builds the grid for a workload, with its experiments in
// registry order. Nothing here depends on the seed: runs with different
// seeds must ask for the same work, and even the experiment order moves
// resource use (superscalar's peak RSS is 67 MB with fig9 claimed first
// and 86 MB with ablate-ooo first).
func resolveGrid(s spec, programs []string, refRoot string) (*grid, error) {
	if s.fixedPrograms != nil {
		programs = s.fixedPrograms
	}
	g := &grid{spec: s, refs: make(map[string]string)}
	for _, name := range programs {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		g.programs = append(g.programs, w)
	}
	if s.experiments == nil {
		g.exps = harness.Experiments()
	} else {
		for _, name := range s.experiments {
			e, ok := harness.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", name)
			}
			g.exps = append(g.exps, e)
		}
	}
	if refRoot == "" {
		return g, nil
	}
	for _, e := range g.exps {
		data, err := os.ReadFile(filepath.Join(refRoot, g.programKey(), e.Name+".txt"))
		if err != nil {
			return nil, fmt.Errorf("reference report: %w", err)
		}
		g.refs[e.Name] = string(data)
	}
	return g, nil
}

// plans enumerates every experiment's cells in grid order.
func (g *grid) plans() []*harness.Plan {
	o := g.opts()
	plans := make([]*harness.Plan, len(g.exps))
	for i, e := range g.exps {
		plans[i] = e.Plan(o)
	}
	return plans
}

// planCells counts the cells of every plan.
func (g *grid) planCells() int {
	n := 0
	for _, p := range g.plans() {
		n += len(p.Keys())
	}
	return n
}

// cells counts the cell operations one timed pass attempts: every cell
// of every plan, once per submission.
func (g *grid) cells() int {
	if g.spec.dist {
		return 2 * g.planCells() // cold and warm submission
	}
	return g.planCells()
}

// groups returns the grid's deduplicated cell groups.
func (g *grid) groups() []*harness.CellGroup { return harness.GroupPlans(g.plans()...) }

// mismatches compares rendered reports with the references and returns
// the names of the experiments that differ.
func (g *grid) mismatches(rendered []string) []string {
	var bad []string
	for i, e := range g.exps {
		if rendered[i] != g.refs[e.Name] {
			bad = append(bad, e.Name)
		}
	}
	return bad
}

// distReference is the merged output a dist coordinator must render for
// the grid: each reference report under its registry header, as
// `jrs all` prints them.
func (g *grid) distReference() string {
	var b strings.Builder
	for _, e := range g.exps {
		b.WriteString("## " + e.Name + " — " + e.Desc + "\n\n" + g.refs[e.Name] + "\n")
	}
	return b.String()
}

func (g *grid) gridSpec() dist.GridSpec {
	gs := dist.GridSpec{Opts: dist.SpecOf(g.opts())}
	for _, e := range g.exps {
		gs.Experiments = append(gs.Experiments, e.Name)
	}
	return gs
}

// localPass plans the grid, runs it on one Runner at the given worker
// count and renders every report. It returns the pass's wall time and
// the experiments whose reports differ from the references. tr, when
// not nil, records a span around every call.
func (g *grid) localPass(tr *tracer, pass string, workers int) (time.Duration, []string, error) {
	o := g.opts()
	start := time.Now()
	root := tr.begin(pass, 0, "pass", "workers", fmt.Sprint(workers))
	plans := make([]*harness.Plan, len(g.exps))
	for i, e := range g.exps {
		id := tr.begin(pass, root, "harness.Experiment.Plan", "experiment", e.Name)
		plans[i] = e.Plan(o)
		tr.end(id)
	}
	id := tr.begin(pass, root, "harness.Runner.RunPlans", "workers", fmt.Sprint(workers))
	err := (&harness.Runner{Workers: workers}).RunPlans(plans...)
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	outs := make([]string, len(plans))
	for i, p := range plans {
		id := tr.begin(pass, root, "harness.Renderer.Render", "experiment", g.exps[i].Name)
		outs[i] = p.Result().Render()
		tr.end(id)
	}
	tr.end(root)
	return time.Since(start), g.mismatches(outs), nil
}

// distResult is one submission to a fresh coordinator.
type distResult struct {
	out       dist.Output
	committed int64
	wall      time.Duration
}

// distSubmit starts a coordinator over the result cache and journal in
// dir, attaches that many in-process dist workers over loopback TCP,
// submits the grid once and tears everything down again. With resume,
// the coordinator trusts the journal, so a complete journal serves every
// cell from the cache.
func (g *grid) distSubmit(dir string, resume bool, workers int) (distResult, error) {
	start := time.Now()
	cache, err := harness.OpenResultCache(dir)
	if err != nil {
		return distResult{}, err
	}
	journal, err := harness.OpenJournal(filepath.Join(dir, harness.JournalName))
	if err != nil {
		return distResult{}, err
	}
	c := dist.NewCoordinator(dist.Config{Cache: cache, Journal: journal, Resume: resume})
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		c.Stop()
		return distResult{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &dist.Worker{
			Name: fmt.Sprintf("w%d", i+1),
			Dial: func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) },
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	out, err := dist.Submit(addr, g.gridSpec(), 150*time.Second)
	cancel()
	c.Stop()
	wg.Wait()
	if err != nil {
		return distResult{}, err
	}
	if out.ExitCode != 0 {
		return distResult{}, fmt.Errorf("dist: exit %d: %s", out.ExitCode, out.ErrMsg)
	}
	return distResult{out: out, committed: c.Committed(), wall: time.Since(start)}, nil
}

// distPass is one dist-hello pass in a fresh directory under scratch: a
// cold submission into the empty cache directory, then a warm resumed
// submission over the same directory. tr, when not nil, records a span
// around each submission.
func (g *grid) distPass(tr *tracer, pass, scratch string, workers int) (cold, warm distResult, err error) {
	dir, err := os.MkdirTemp(scratch, "dist-")
	if err != nil {
		return cold, warm, err
	}
	defer os.RemoveAll(dir)
	root := tr.begin(pass, 0, "pass", "workers", fmt.Sprint(workers))
	defer tr.end(root)
	id := tr.begin(pass, root, "dist.cold", "resume", "false")
	cold, err = g.distSubmit(dir, false, workers)
	tr.end(id)
	if err != nil {
		return cold, warm, fmt.Errorf("cold submit: %w", err)
	}
	id = tr.begin(pass, root, "dist.warm", "resume", "true")
	warm, err = g.distSubmit(dir, true, workers)
	tr.end(id)
	if err != nil {
		return cold, warm, fmt.Errorf("warm submit: %w", err)
	}
	return cold, warm, nil
}

// checkDist compares both submissions with the references and checks
// that the cold one committed every group and the warm one none. It
// returns a description of each problem.
func (g *grid) checkDist(cold, warm distResult, groups int) []string {
	want := g.distReference()
	var bad []string
	if cold.out.Output != want {
		bad = append(bad, "cold output differs from reference")
	}
	if warm.out.Output != want {
		bad = append(bad, "warm output differs from reference")
	}
	if cold.committed != int64(groups) {
		bad = append(bad, fmt.Sprintf("cold submit committed %d of %d groups", cold.committed, groups))
	}
	if warm.committed != 0 {
		bad = append(bad, fmt.Sprintf("warm submit committed %d groups, want 0 (all cached)", warm.committed))
	}
	return bad
}
