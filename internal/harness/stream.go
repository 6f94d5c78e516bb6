package harness

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// stream is one default-config engine run: a workload at a scale under
// a mode with a zero core.Config. Every cell that only attaches sinks to
// such a run is a probe of its stream, and the Runner simulates a
// stream once for all of its pending probes (Shade's one trace, many
// analyzers).
type stream struct {
	w     workloads.Workload
	scale int
	mode  Mode
}

// id names the stream; cells with equal ids observe identical traces.
func (s stream) id() string { return fmt.Sprintf("%s@%d/%s", s.w.Name, s.scale, s.mode) }

// probe builds one cell's sinks for a stream run. It returns the sink to
// attach (a cache.Bank over several cache hierarchies, a trace.Tee over
// several other sinks) and the read step that turns the sink's final
// state into the cell payload once the engine finished.
type probe func() (trace.Sink, func() (any, error))

// addProbe appends a cell that observes one default-config run of s.
// Run alone (CellGroup.Run, the dist path) the cell simulates s with
// only its own sinks; the Runner fuses it with every other pending
// probe of s.
func (p *Plan) addProbe(key CellKey, dest any, s stream, pr probe) {
	p.cells = append(p.cells, Cell{Key: key, dest: dest, stream: &s, probe: pr,
		sim: func(ctx context.Context) (any, error) {
			payloads, errs, err := runStream(ctx, s, []probe{pr})
			if err != nil {
				return nil, err
			}
			return payloads[0], errs[0]
		}})
}

// runStream runs s once with every probe's sinks attached and reads
// each probe. Every probe's cache hierarchies join one cache.Bank, which
// decodes each batch once per line size for all of them. err is an
// engine failure shared by all probes; errs holds each probe's own read
// failure (a read panic included).
func runStream(ctx context.Context, s stream, probes []probe) (payloads []any, errs []error, err error) {
	var sinks []trace.Sink
	var hs []*cache.Hierarchy
	reads := make([]func() (any, error), len(probes))
	for i, pr := range probes {
		var sink trace.Sink
		sink, reads[i] = pr()
		switch m := sink.(type) {
		case *cache.Hierarchy:
			hs = append(hs, m)
		case *cache.Bank:
			hs = append(hs, m.Members()...)
		default:
			sinks = append(sinks, sink)
		}
	}
	if len(hs) > 0 {
		sinks = append(sinks, cache.NewBank(hs...))
	}
	if _, err := RunCtx(ctx, s.w, s.scale, s.mode, core.Config{}, sinks...); err != nil {
		return nil, nil, err
	}
	payloads = make([]any, len(probes))
	errs = make([]error, len(probes))
	for i, read := range reads {
		errs[i] = guard(func() (err error) {
			payloads[i], err = read()
			return err
		})
	}
	return payloads, errs, nil
}

// guard runs f, converting a panic into a *PanicError.
func guard(f func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = newPanicError(rec)
		}
	}()
	return f()
}

// execution is the Runner's unit of claimed work: the pending probe
// groups of one stream, or a single opaque group (multi-run cells and
// cells with a custom core.Config) that runs its own closure.
type execution struct {
	stream  *stream      // nil for an opaque group
	members []*CellGroup // enumeration order
}

// fuse partitions groups into executions, ordered by each execution's
// first member.
func fuse(groups []*CellGroup) []*execution {
	var execs []*execution
	byStream := make(map[string]*execution)
	for _, g := range groups {
		if g.stream == nil {
			execs = append(execs, &execution{members: []*CellGroup{g}})
			continue
		}
		id := g.stream.id()
		x, ok := byStream[id]
		if !ok {
			x = &execution{stream: g.stream}
			byStream[id] = x
			execs = append(execs, x)
		}
		x.members = append(x.members, g)
	}
	return execs
}

// simulate runs the engine work for the given members: the opaque
// group's closure, or one stream run with every member's probe. err is
// a failure every member shares; errs are per-member read failures.
func (x *execution) simulate(ctx context.Context, members []*CellGroup) (payloads []any, errs []error, err error) {
	if x.stream == nil {
		payload, err := members[0].sim(ctx)
		return []any{payload}, []error{nil}, err
	}
	probes := make([]probe, len(members))
	for i, g := range members {
		probes[i] = g.probe
	}
	return runStream(ctx, *x.stream, probes)
}

// labels are the pprof labels of the execution's goroutine, so a CPU
// profile can be sliced by experiment, workload and mode (-tagfocus).
func (x *execution) labels() pprof.LabelSet {
	var exps []string
	seen := make(map[string]bool)
	for _, g := range x.members {
		if !seen[g.Key.Experiment] {
			seen[g.Key.Experiment] = true
			exps = append(exps, g.Key.Experiment)
		}
	}
	k := x.members[0].Key
	return pprof.Labels("experiments", strings.Join(exps, ","), "workload", k.Workload, "mode", k.Mode)
}
