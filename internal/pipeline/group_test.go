package pipeline_test

import (
	"testing"

	"jrs/internal/core"
	"jrs/internal/harness"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// recorder keeps a copy of every instruction it receives.
type recorder struct{ insts []trace.Inst }

func (r *recorder) Emit(in trace.Inst) { r.insts = append(r.insts, in) }

// groupConfigs returns the configurations the grid times on one shared
// front end: fig9's widths, ablate-ooo's 18 resource points and a
// conservative-disambiguation core on the BTB front end, and
// ablate-interp-ilp's widths on the target cache.
func groupConfigs() (btb, tc []pipeline.Config) {
	for _, w := range []int{1, 2, 4, 8} {
		btb = append(btb, pipeline.DefaultConfig(w))
		cfg := pipeline.DefaultConfig(w)
		cfg.TargetCache = true
		tc = append(tc, cfg)
	}
	for _, v := range []int{8, 16, 32, 64, 128, 256} {
		cfg := pipeline.DefaultConfig(4)
		cfg.ROBSize = v
		btb = append(btb, cfg)
	}
	for _, v := range []int{2, 4, 8, 16, 32, 64} {
		cfg := pipeline.DefaultConfig(4)
		cfg.RSPerClass = v
		btb = append(btb, cfg)
	}
	for _, v := range []int{4, 8, 16, 32, 64, 128} {
		cfg := pipeline.DefaultConfig(4)
		cfg.LSQSize = v
		btb = append(btb, cfg)
	}
	cfg := pipeline.DefaultConfig(4)
	cfg.MemSpeculate = false
	btb = append(btb, cfg)
	return btb, tc
}

// inBatches feeds tr to s in batches of n.
func inBatches(n int) func(trace.Sink, []trace.Inst) {
	return func(s trace.Sink, tr []trace.Inst) {
		for len(tr) > 0 {
			k := min(n, len(tr))
			s.(trace.BatchSink).EmitBatch(tr[:k])
			tr = tr[k:]
		}
	}
}

// TestGroupMatchesStandaloneCores is the shared-front-end differential:
// every core of a Group must report exactly what the same configuration
// reports as a lone New core with its own front end, however the stream
// is cut into batches. Batches of 1, 7 and 1023 put stores and their
// dependent loads on opposite sides of a batch boundary.
func TestGroupMatchesStandaloneCores(t *testing.T) {
	streams := map[string][]trace.Inst{"mixed": pipeline.MixedTrace(20000, 5)}
	hello, _ := workloads.ByName("hello")
	for _, mode := range []harness.Mode{harness.ModeInterp, harness.ModeJIT} {
		rec := &recorder{}
		if _, err := harness.Run(hello, hello.BenchN, mode, core.Config{}, rec); err != nil {
			t.Fatalf("record hello/%v: %v", mode, err)
		}
		streams["hello/"+mode.String()] = rec.insts
	}
	feeds := map[string]func(trace.Sink, []trace.Inst){
		"one batch": inBatches(1 << 30),
		"emit": func(s trace.Sink, tr []trace.Inst) {
			for _, in := range tr {
				s.Emit(in)
			}
		},
		"batch1":    inBatches(1),
		"batch7":    inBatches(7),
		"batch1023": inBatches(1023),
	}
	btb, tc := groupConfigs()
	for name, tr := range streams {
		for _, cfgs := range [][]pipeline.Config{btb, tc} {
			want := make([][6]uint64, len(cfgs))
			for i, cfg := range cfgs {
				c := pipeline.New(cfg)
				c.EmitBatch(tr)
				want[i] = pipeline.CoreStats(c)
			}
			for feedName, feed := range feeds {
				g := pipeline.NewGroup(cfgs...)
				feed(g, tr)
				for i, c := range g.Cores {
					if got := pipeline.CoreStats(c); got != want[i] {
						t.Errorf("%s fed %s: core %d (%+v): group %v, standalone %v",
							name, feedName, i, cfgs[i], got, want[i])
					}
				}
			}
		}
	}
}

func TestNewGroupRejectsMixedFrontEnds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup accepted a BTB and a target-cache core on one front end")
		}
	}()
	tc := pipeline.DefaultConfig(4)
	tc.TargetCache = true
	pipeline.NewGroup(pipeline.DefaultConfig(4), tc)
}

// TestEmitAllocatesNothing pins the steady state of both delivery
// paths: per-instruction Emit (-nobatch) and EmitBatch reuse the
// group's buffers, so timing a warm stream allocates nothing.
func TestEmitAllocatesNothing(t *testing.T) {
	tr := pipeline.MixedTrace(4096, 9)
	btb, _ := groupConfigs()
	sinks := map[string]trace.Sink{
		"Core":  pipeline.New(pipeline.DefaultConfig(4)),
		"Group": pipeline.NewGroup(btb...),
	}
	feeds := map[string]func(trace.Sink, []trace.Inst){
		"Emit": func(s trace.Sink, tr []trace.Inst) {
			for _, in := range tr {
				s.Emit(in)
			}
		},
		"EmitBatch": inBatches(1024),
	}
	for sinkName, s := range sinks {
		for feedName, feed := range feeds {
			feed(s, tr) // warm: every stored word has its ID and slot
			if n := testing.AllocsPerRun(5, func() { feed(s, tr) }); n != 0 {
				t.Errorf("%s.%s: %.1f allocations per %d-instruction pass, want 0",
					sinkName, feedName, n, len(tr))
			}
		}
	}
}
