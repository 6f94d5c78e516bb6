package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"jrs/internal/harness"
)

// checks counts exactness checks: every check is an attempted
// operation, every mismatch a failed one.
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// cells adds a pass's cells: all failed when its reports differ.
func (c *checks) cells(n int, bad []string, pass string) {
	c.attempted += n
	if len(bad) > 0 {
		c.failed += n
		c.problems = append(c.problems, fmt.Sprintf("%s pass: reports differ from reference: %s", pass, strings.Join(bad, ", ")))
	}
}

// groupTime is one cell group's host time in the serial pass.
type groupTime struct {
	key harness.CellKey
	dur time.Duration
}

// serialResult is the traced Workers=1 pass.
type serialResult struct {
	wall   time.Duration
	plan   time.Duration // Experiment.Plan calls plus GroupPlans
	plans  []*harness.Plan
	groups []groupTime
	cells  int
	expDur map[string]time.Duration // host time per experiment
}

// serialPass runs the grid one cell group at a time on this goroutine,
// with a span around every call into the harness: the Workers=1 pass
// that yields per-cell and per-experiment host time.
func (g *grid) serialPass(tr *tracer) (*serialResult, []string, error) {
	const pass = "serial"
	sr := &serialResult{expDur: make(map[string]time.Duration)}
	o := g.opts()
	start := time.Now()
	root := tr.begin(pass, 0, "pass", "workers", "1")
	for _, e := range g.exps {
		id := tr.begin(pass, root, "harness.Experiment.Plan", "experiment", e.Name)
		sr.plans = append(sr.plans, e.Plan(o))
		d := tr.end(id)
		sr.plan += d
		sr.expDur[e.Name] += d
	}
	id := tr.begin(pass, root, "harness.GroupPlans")
	groups := harness.GroupPlans(sr.plans...)
	sr.plan += tr.end(id)
	for _, p := range sr.plans {
		sr.cells += len(p.Keys())
	}
	ctx := context.Background()
	for _, grp := range groups {
		id := tr.begin(pass, root, "harness.CellGroup.Run", "key", grp.Key.String(), "experiment", grp.Key.Experiment)
		raw, err := grp.Run(ctx)
		d := tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		id = tr.begin(pass, root, "harness.CellGroup.Deliver", "key", grp.Key.String())
		err = grp.Deliver(raw)
		d += tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		sr.groups = append(sr.groups, groupTime{key: grp.Key, dur: d})
		sr.expDur[grp.Key.Experiment] += d
	}
	outs := make([]string, len(sr.plans))
	for i, p := range sr.plans {
		name := g.exps[i].Name
		id := tr.begin(pass, root, "harness.Plan.Finish", "experiment", name)
		err := p.Finish()
		d := tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		id = tr.begin(pass, root, "harness.Renderer.Render", "experiment", name)
		outs[i] = p.Result().Render()
		sr.expDur[name] += d + tr.end(id)
	}
	tr.end(root)
	sr.wall = time.Since(start)
	return sr, g.mismatches(outs), nil
}

// census is the stream-reuse census of one grid, from Plan.Keys().
type census struct {
	cells, groups   int
	streams         []stream // distinct plain-mode (program, scale, mode) streams
	otherGroups     int      // groups whose mode is not one plain stream
	instsRegenerate uint64   // instructions the groups regenerate per pass
}

func plainMode(s string) (harness.Mode, bool) {
	for _, m := range []harness.Mode{harness.ModeInterp, harness.ModeJIT, harness.ModeAOT} {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

func (g *grid) census(sr *serialResult) census {
	c := census{cells: sr.cells, groups: len(sr.groups)}
	seen := make(map[string]bool)
	for _, gt := range sr.groups {
		m, ok := plainMode(gt.key.Mode)
		if !ok {
			c.otherGroups++
			continue
		}
		for _, w := range g.programs {
			if w.Name != gt.key.Workload {
				continue
			}
			s := stream{w: w, scale: gt.key.Scale, mode: m}
			if !seen[s.String()] {
				seen[s.String()] = true
				c.streams = append(c.streams, s)
			}
		}
	}
	sort.Slice(c.streams, func(i, j int) bool { return c.streams[i].String() < c.streams[j].String() })
	return c
}

// distProbe measures the dist layer, the result cache and the journal
// on the dist-hello grid: a local Runner pass, a cold and a warm dist
// submission (each ledgerReps times, medians kept), then Put, Get and
// journal append of every cell payload.
type distProbe struct {
	local, cold, warm   time.Duration
	putUs, getUs, appUs float64
}

func runDistProbe(cfg config, tr *tracer, workers int, ck *checks) (*distProbe, error) {
	s, _ := lookupSpec("dist-hello")
	g, err := resolveGrid(s, nil, cfg.refRoot())
	if err != nil {
		return nil, err
	}
	groups := len(g.groups())
	var locals, colds, warms []time.Duration
	for i := 0; i < ledgerReps; i++ {
		pass := fmt.Sprintf("dist-probe-%d", i+1)
		wall, bad, err := g.localPass(tr, pass+"-local", workers)
		if err != nil {
			return nil, err
		}
		ck.cells(g.planCells(), bad, pass+"-local")
		cold, warm, err := g.distPass(tr, pass, cfg.out, workers)
		if err != nil {
			return nil, err
		}
		ck.cells(g.cells(), g.checkDist(cold, warm, groups), pass)
		colds, warms = append(colds, cold.wall), append(warms, warm.wall)
		locals = append(locals, wall)
	}
	dp := &distProbe{local: medianDur(locals), cold: medianDur(colds), warm: medianDur(warms)}
	if err := dp.storage(g, cfg.out, tr); err != nil {
		return nil, err
	}
	return dp, nil
}

// storage times ResultCache.Put, ResultCache.Get and Journal.Record on
// the grid's real cell payloads, in a fresh directory.
func (dp *distProbe) storage(g *grid, scratch string, tr *tracer) error {
	const pass = "storage"
	groups := g.groups()
	payloads := make([]json.RawMessage, len(groups))
	for i, grp := range groups {
		raw, err := grp.Run(context.Background())
		if err != nil {
			return err
		}
		payloads[i] = raw
	}
	dir, err := os.MkdirTemp(scratch, "storage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc, err := harness.OpenResultCache(dir)
	if err != nil {
		return err
	}
	j, err := harness.OpenJournal(filepath.Join(dir, harness.JournalName))
	if err != nil {
		return err
	}
	defer j.Close()
	var puts, gets, apps []time.Duration
	for i, grp := range groups {
		id := tr.begin(pass, 0, "harness.ResultCache.Put", "key", grp.Key.String())
		err := rc.Put(grp.Key, payloads[i])
		puts = append(puts, tr.end(id))
		if err != nil {
			return err
		}
		id = tr.begin(pass, 0, "harness.ResultCache.Get", "key", grp.Key.String())
		raw, ok := rc.Get(grp.Key)
		gets = append(gets, tr.end(id))
		if !ok || string(raw) != string(payloads[i]) {
			return fmt.Errorf("result cache: %s did not round-trip", grp.Key)
		}
		id = tr.begin(pass, 0, "harness.Journal.Record", "key", grp.Key.String())
		err = j.Record(grp.Key.Hash(), grp.Key)
		apps = append(apps, tr.end(id))
		if err != nil {
			return err
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	dp.putUs, dp.getUs, dp.appUs = us(medianDur(puts)), us(medianDur(gets)), us(medianDur(apps))
	return nil
}

// fidelity checks that the replayed JIT streams reproduce the grid's own
// cells: table3's cache counts and fig9's cycle counts, wherever the
// serial pass computed them.
func fidelity(sr *serialResult, l *ledger, ck *checks) {
	for _, p := range sr.plans {
		switch r := p.Result().(type) {
		case *harness.Table3Result:
			for _, row := range r.Rows {
				f := l.facts[streamKey(row.Workload, scaleOf(p, row.Workload), row.Mode)]
				if row.Mode != harness.ModeJIT || f == nil || f.Cache == nil {
					continue
				}
				grid := cacheFacts{IRefs: row.I.Refs(), IMisses: row.I.Misses(), DRefs: row.D.Refs(), DMisses: row.D.Misses()}
				ck.expect(grid == *f.Cache, "replay fidelity: table3 %s/jit cache %+v, replay %+v", row.Workload, grid, *f.Cache)
			}
		case *harness.Fig9Result:
			for _, row := range r.Rows {
				f := l.facts[streamKey(row.Workload, scaleOf(p, row.Workload), row.Mode)]
				if row.Mode != harness.ModeJIT || f == nil || f.Cycles == nil {
					continue
				}
				for i, w := range row.Widths {
					if c, ok := f.Cycles[fmt.Sprintf("w%d", w)]; ok {
						ck.expect(c == row.Cycles[i], "replay fidelity: fig9 %s/jit w%d cycles %d, replay %d", row.Workload, w, row.Cycles[i], c)
					}
				}
			}
		}
	}
}

// scaleOf returns the scale at which a plan runs a program.
func scaleOf(p *harness.Plan, workload string) int {
	for _, k := range p.Keys() {
		if k.Workload == workload {
			return k.Scale
		}
	}
	return 0
}

// exactness compares the ledger's simulated statistics with the stored
// stream facts.
func exactness(l *ledger, stored map[string]*streamFacts, streams []stream, ck *checks) {
	for _, s := range streams {
		got, _ := json.Marshal(l.facts[s.String()])
		want, _ := json.Marshal(stored[s.String()])
		ck.expect(string(got) == string(want), "exactness: %s: got %s, stored %s", s, got, want)
	}
}

func loadFacts(path string) (map[string]*streamFacts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("stream facts: %w", err)
	}
	facts := make(map[string]*streamFacts)
	if err := json.Unmarshal(data, &facts); err != nil {
		return nil, fmt.Errorf("stream facts %s: %w", path, err)
	}
	return facts, nil
}

// tracedRun is the separate traced run: a traced Workers=1 pass, a
// traced pass as timed runs make it, an untraced child pass for the
// tracing overhead, the replay ledger, and the dist probe.
func tracedRun(cfg config, s spec) (*result, error) {
	g, err := resolveGrid(s, cfg.programs, cfg.refRoot())
	if err != nil {
		return nil, err
	}
	stored, err := loadFacts(filepath.Join(cfg.refRoot(), g.programKey(), "facts.json"))
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	tr := newTracer()
	ck := &checks{}

	sr, bad, err := g.serialPass(tr)
	if err != nil {
		return nil, err
	}
	ck.cells(sr.cells, bad, "serial")

	// The traced counterpart of a timed pass, and an untraced one.
	var tracedWall, parallelWall time.Duration
	if g.spec.dist {
		t0 := time.Now()
		cold, warm, err := g.distPass(tr, "traced", cfg.out, nproc)
		if err != nil {
			return nil, err
		}
		tracedWall = time.Since(t0)
		ck.cells(g.cells(), g.checkDist(cold, warm, len(sr.groups)), "traced")
	} else {
		wall, bad, err := g.localPass(tr, "traced", nproc)
		if err != nil {
			return nil, err
		}
		tracedWall, parallelWall = wall, wall
		ck.cells(sr.cells, bad, "traced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	untraced, err := spawnChild(ctx, cfg, "pass")
	if err != nil {
		return nil, err
	}
	ck.attempted += untraced.Cells
	ck.failed += untraced.Failed
	ck.problems = append(ck.problems, untraced.Problems...)

	cen := g.census(sr)
	l := newLedger()
	id := tr.begin("ledger", 0, "ledger")
	err = l.run(g.programs, cen.streams)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, gt := range sr.groups {
		if m, ok := plainMode(gt.key.Mode); ok {
			if f := l.facts[streamKey(gt.key.Workload, gt.key.Scale, m)]; f != nil {
				cen.instsRegenerate += f.Insts
			}
		}
	}
	exactness(l, stored, cen.streams, ck)
	fidelity(sr, l, ck)

	dp, err := runDistProbe(cfg, tr, nproc, ck)
	if err != nil {
		return nil, err
	}
	if g.spec.dist {
		parallelWall = dp.local
	}

	var cellSum, critical time.Duration
	for _, gt := range sr.groups {
		cellSum += gt.dur
		critical = max(critical, gt.dur)
	}
	res := &result{Attempted: ck.attempted, Failed: ck.failed}
	res.set("vm_emit.interp.ns_per_inst", l.vmNsPerInst(harness.ModeInterp), "ns/inst")
	res.set("vm_emit.jit.ns_per_inst", l.vmNsPerInst(harness.ModeJIT), "ns/inst")
	res.set("vm_emit.allocs_per_kinst", l.allocsPerKinst(), "allocs/kinst")
	res.set("minijava.compile_ms", l.compileMs, "ms")
	res.set("vm.load_ms", l.loadMs, "ms")
	for _, name := range []string{"trace.tee4", "trace.counter", "cache.paper", "branch.suite",
		"pipeline.w1", "pipeline.w4", "pipeline.w8"} {
		res.set(name+".ns_per_inst", l.nsPerInst(name), "ns/inst")
	}
	res.set("harness.cells", float64(cen.cells), "count")
	res.set("harness.groups", float64(cen.groups), "count")
	res.set("harness.distinct_streams", float64(len(cen.streams)), "count")
	res.set("harness.insts_regenerated", float64(cen.instsRegenerate), "count")
	res.set("harness.plan_ms", ms(sr.plan), "ms")
	res.set("harness.serial_wall_s", sr.wall.Seconds(), "s")
	res.set("harness.parallel_wall_s", parallelWall.Seconds(), "s")
	res.set("harness.cell_sum_s", cellSum.Seconds(), "s")
	res.set("harness.critical_path_s", critical.Seconds(), "s")
	res.set("harness.self_s", (sr.wall - cellSum).Seconds(), "s")
	res.set("harness.parallel_speedup", sr.wall.Seconds()/parallelWall.Seconds(), "ratio")
	res.set("resultcache.put_us", dp.putUs, "us")
	res.set("resultcache.get_us", dp.getUs, "us")
	res.set("journal.append_us", dp.appUs, "us")
	res.set("dist.local_pass_s", dp.local.Seconds(), "s")
	res.set("dist.cold_pass_s", dp.cold.Seconds(), "s")
	res.set("dist.warm_pass_s", dp.warm.Seconds(), "s")
	res.set("dist.overhead_frac", dp.cold.Seconds()/dp.local.Seconds()-1, "frac")
	res.set("bench.tracing_overhead_frac", tracedWall.Seconds()/untraced.Wall-1, "frac")

	shares := make(map[string]float64)
	for name, d := range sr.expDur {
		shares[name] = d.Seconds() / sr.wall.Seconds()
	}
	var groupTimes []map[string]any
	for _, gt := range sr.groups {
		groupTimes = append(groupTimes, map[string]any{"key": gt.key.String(), "host_s": gt.dur.Seconds()})
	}
	var streamNames []string
	for _, s := range cen.streams {
		streamNames = append(streamNames, s.String())
	}
	res.details = map[string]any{
		"problems":              ck.problems,
		"census":                map[string]any{"cells": cen.cells, "groups": cen.groups, "distinct_streams": streamNames, "groups_not_one_stream": cen.otherGroups, "insts_regenerated": cen.instsRegenerate},
		"experiment_host_share": shares,
		"group_host_s":          groupTimes,
		"stream_facts":          l.facts,
		"self_time_s":           selfTimes(tr.spans),
		"untraced_pass":         untraced,
		"spans":                 tr.spans,
	}
	for _, p := range ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	printLedger(os.Stderr, cfg.workload, res, cen, shares)
	return res, nil
}
