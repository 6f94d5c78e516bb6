package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/harness"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// ledgerReps is how many times each layer measurement repeats; the
// ledger keeps the median.
const ledgerReps = 3

// pipelineWidths are the Tomasulo core widths the ledger replays into.
var pipelineWidths = []int{1, 4, 8}

// stream is one (program, scale, mode) instruction stream.
type stream struct {
	w     workloads.Workload
	scale int
	mode  harness.Mode
}

func (s stream) String() string { return streamKey(s.w.Name, s.scale, s.mode) }

// streamKey names a stream in the stored facts and cell keys' terms.
func streamKey(workload string, scale int, mode harness.Mode) string {
	return fmt.Sprintf("%s@%d/%s", workload, scale, mode)
}

// streamFacts are the simulated statistics of one stream. They are
// deterministic, so the benchmark stores them and every traced run must
// reproduce them exactly.
type streamFacts struct {
	Insts uint64 `json:"insts"`
	// The rest is filled for replayed (JIT) streams only; Recorded is
	// the length of the recording, which must equal Insts.
	Recorded uint64            `json:"recorded,omitempty"`
	Cache    *cacheFacts       `json:"cache,omitempty"`
	Branch   map[string]uint64 `json:"branch_mispredicts,omitempty"`
	Cycles   map[string]uint64 `json:"pipeline_cycles,omitempty"`
}

type cacheFacts struct {
	IRefs   uint64 `json:"i_refs"`
	IMisses uint64 `json:"i_misses"`
	DRefs   uint64 `json:"d_refs"`
	DMisses uint64 `json:"d_misses"`
}

func cacheFactsOf(h *cache.Hierarchy) *cacheFacts {
	return &cacheFacts{
		IRefs: h.I.Stats.Refs(), IMisses: h.I.Stats.Misses(),
		DRefs: h.D.Stats.Refs(), DMisses: h.D.Stats.Misses(),
	}
}

// ledger is the per-layer cost of one grid's streams.
type ledger struct {
	facts map[string]*streamFacts // stream → simulated statistics
	// vmNs and vmInsts accumulate VM+emit host time and instructions by
	// mode; allocs counts heap allocations over every VM+emit run.
	vmNs    map[harness.Mode]float64
	vmInsts map[harness.Mode]uint64
	allocs  uint64
	// sinkNs and sinkInsts accumulate replay host time by layer name.
	sinkNs    map[string]float64
	sinkInsts map[string]uint64
	compileMs float64
	loadMs    float64
}

func newLedger() *ledger {
	return &ledger{
		facts:     make(map[string]*streamFacts),
		vmNs:      make(map[harness.Mode]float64),
		vmInsts:   make(map[harness.Mode]uint64),
		sinkNs:    make(map[string]float64),
		sinkInsts: make(map[string]uint64),
	}
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// timeReps runs fn ledgerReps times and returns the median duration.
func timeReps(fn func()) time.Duration {
	ds := make([]time.Duration, ledgerReps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = time.Since(t)
	}
	return medianDur(ds)
}

// measureFrontEnd times MiniJava compilation (Workload.Classes) and
// class loading with verification (core.New + VM.Load) per program.
func (l *ledger) measureFrontEnd(programs []workloads.Workload) error {
	for _, w := range programs {
		n := w.BenchN
		l.compileMs += ms(timeReps(func() { w.Classes(n) }))
		var loadErr error
		ds := make([]time.Duration, ledgerReps)
		for i := range ds {
			classes := w.Classes(n)
			t := time.Now()
			e := core.New(core.Config{})
			if err := e.VM.Load(classes); err != nil {
				loadErr = err
			}
			ds[i] = time.Since(t)
		}
		if loadErr != nil {
			return fmt.Errorf("%s: load: %w", w.Name, loadErr)
		}
		l.loadMs += ms(medianDur(ds))
	}
	return nil
}

// measureVM times harness.Run of a stream into a discarding sink: the
// cost of the VM and the native emitter alone.
func (l *ledger) measureVM(s stream) error {
	var insts uint64
	var runErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := timeReps(func() {
		e, err := harness.Run(s.w, s.scale, s.mode, core.Config{}, trace.Discard)
		if err != nil {
			runErr = err
			return
		}
		insts = e.TotalInstrs()
	})
	runtime.ReadMemStats(&after)
	if runErr != nil {
		return fmt.Errorf("%s: %w", s, runErr)
	}
	l.vmNs[s.mode] += float64(d.Nanoseconds())
	l.vmInsts[s.mode] += insts
	l.allocs += (after.Mallocs - before.Mallocs) / ledgerReps
	l.fact(s).Insts = insts
	return nil
}

func (l *ledger) fact(s stream) *streamFacts {
	f := l.facts[s.String()]
	if f == nil {
		f = &streamFacts{}
		l.facts[s.String()] = f
	}
	return f
}

// recorder keeps a stream in memory.
type recorder struct{ buf []trace.Inst }

func (r *recorder) Emit(in trace.Inst)           { r.buf = append(r.buf, in) }
func (r *recorder) EmitBatch(batch []trace.Inst) { r.buf = append(r.buf, batch...) }

// replay delivers buf to sink in engine-sized batches. A Batcher is fed
// one instruction at a time instead, as an engine feeds it.
func replay(buf []trace.Inst, sink trace.Sink) {
	if b, ok := sink.(*trace.Batcher); ok {
		for _, in := range buf {
			b.Add(in)
		}
		b.Flush()
		return
	}
	for i := 0; i < len(buf); i += trace.BatchSize {
		j := min(i+trace.BatchSize, len(buf))
		trace.EmitBatchTo(sink, buf[i:j])
	}
}

// measureReplay records one stream and replays it into every simulator
// sink on its own, recording each layer's host time and the simulated
// statistics the replay produced. The recording is dropped on return.
func (l *ledger) measureReplay(s stream) error {
	rec := &recorder{buf: make([]trace.Inst, 0, l.fact(s).Insts)}
	if _, err := harness.Run(s.w, s.scale, s.mode, core.Config{}, rec); err != nil {
		return fmt.Errorf("record %s: %w", s, err)
	}
	buf := rec.buf
	f := l.fact(s)
	n := uint64(len(buf))

	layer := func(name string, build func() trace.Sink, keep func(trace.Sink)) {
		ds := make([]time.Duration, ledgerReps)
		for i := range ds {
			sink := build()
			t := time.Now()
			replay(buf, sink)
			ds[i] = time.Since(t)
			if i == 0 && keep != nil {
				keep(sink)
			}
		}
		l.sinkNs[name] += float64(medianDur(ds).Nanoseconds())
		l.sinkInsts[name] += n
	}

	f.Recorded = n
	layer("trace.counter", func() trace.Sink { return &trace.Counter{} }, nil)
	// The engine's transport shape: a Batcher into a Tee of four Counters.
	layer("trace.tee4", func() trace.Sink {
		return trace.NewBatcher(trace.Tee(&trace.Counter{}, &trace.Counter{}, &trace.Counter{}, &trace.Counter{}), 0)
	}, nil)

	layer("cache.paper", func() trace.Sink { return cache.PaperDefault() },
		func(s trace.Sink) { f.Cache = cacheFactsOf(s.(*cache.Hierarchy)) })
	layer("branch.suite", func() trace.Sink { return branch.NewSuite() },
		func(s trace.Sink) {
			f.Branch = make(map[string]uint64)
			for _, u := range s.(*branch.Suite).Units {
				f.Branch[u.Dir.Name()] = u.Stats.Mispredicts()
			}
		})
	f.Cycles = make(map[string]uint64)
	for _, width := range pipelineWidths {
		name := fmt.Sprintf("w%d", width)
		layer("pipeline."+name, func() trace.Sink { return pipeline.New(pipeline.DefaultConfig(width)) },
			func(s trace.Sink) { f.Cycles[name] = s.(*pipeline.Core).Cycles() })
	}
	return nil
}

func (l *ledger) nsPerInst(name string) float64 {
	if l.sinkInsts[name] == 0 {
		return 0
	}
	return l.sinkNs[name] / float64(l.sinkInsts[name])
}

func (l *ledger) vmNsPerInst(m harness.Mode) float64 {
	if l.vmInsts[m] == 0 {
		return 0
	}
	return l.vmNs[m] / float64(l.vmInsts[m])
}

func (l *ledger) allocsPerKinst() float64 {
	var insts uint64
	for _, n := range l.vmInsts {
		insts += n
	}
	if insts == 0 {
		return 0
	}
	return float64(l.allocs) / (float64(insts) / 1000)
}

// run measures the front end for the programs, VM+emit for every stream,
// and the sink replays for every JIT stream, one recording at a time.
// Interpreter streams are an order of magnitude longer than JIT ones
// (about 24M instructions, 0.8 GB recorded, for jess), so they are
// timed through VM+emit but not recorded.
func (l *ledger) run(programs []workloads.Workload, streams []stream) error {
	if err := l.measureFrontEnd(programs); err != nil {
		return err
	}
	for _, s := range streams {
		if err := l.measureVM(s); err != nil {
			return err
		}
	}
	for _, s := range streams {
		if s.mode != harness.ModeJIT {
			continue
		}
		if err := l.measureReplay(s); err != nil {
			return err
		}
		runtime.GC() // release the recording before the next one
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
