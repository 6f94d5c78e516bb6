package pipeline

import (
	"fmt"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/trace"
)

// outcome is the front end's verdict on one instruction: everything the
// timing back end needs from the I-cache, D-cache, predictor and store
// history. All of it depends only on the program-order trace, never on
// timing, so every core with the same front-end configuration sees the
// same outcomes.
type outcome struct {
	flags uint8
	// word is the dense ID of a memory operand's 8-byte word, assigned
	// on the word's first store; 0 means no older store to the word.
	word uint32
}

// outcome flags.
const (
	iMiss      uint8 = 1 << iota // the fetch misses the I-cache
	dMiss                        // the load or store misses the D-cache
	mispredict                   // the control transfer is mispredicted
)

// frontEnd owns the state the timing back end reads but never feeds:
// the L1 caches, the prediction unit, and the word-ID interning of
// stored addresses.
type frontEnd struct {
	ic, dc *cache.Cache
	pred   predictor
	// ids maps a stored word to its ID (the table's value).
	ids wordCycleTable
	// words is the number of IDs assigned so far (IDs are 1..words).
	words uint32
}

func newFrontEnd(cfg Config) *frontEnd {
	var pred predictor = branch.NewUnit(branch.NewGshare(2048, 5), 1024)
	if cfg.TargetCache {
		pred = branch.NewIndirectUnit()
	}
	f := &frontEnd{ic: cache.New(cfg.ICache), dc: cache.New(cfg.DCache), pred: pred}
	f.ids.init()
	return f
}

// annotate fills out[i] with the outcome of batch[i], accessing every
// structure in program order exactly as a lone core would.
func (f *frontEnd) annotate(batch []trace.Inst, out []outcome) {
	for i := range batch {
		in := &batch[i]
		var o outcome
		if !f.ic.Access(in.PC, false) {
			o.flags |= iMiss
		}
		switch {
		case in.Class == trace.Load:
			if !f.dc.Access(in.Addr, false) {
				o.flags |= dMiss
			}
			id, _ := f.ids.get(in.Addr >> 3)
			o.word = uint32(id)
		case in.Class == trace.Store:
			if !f.dc.Access(in.Addr, true) {
				o.flags |= dMiss
			}
			w := in.Addr >> 3
			id, ok := f.ids.get(w)
			if !ok {
				f.words++
				id = uint64(f.words)
				f.ids.put(w, id)
			}
			o.word = uint32(id)
		case in.Class.IsControl():
			if f.pred.Observe(*in) {
				o.flags |= mispredict
			}
		}
		out[i] = o
	}
}

// Group times one instruction stream on several cores that share a
// front end: each batch is annotated once, then timed on every member
// in turn. It implements trace.Sink and trace.BatchSink. The result is
// identical to feeding each configuration's own New core, because the
// front end's outcomes do not depend on any timing state.
type Group struct {
	// Cores holds one timing back end per configuration, in the order
	// given to NewGroup.
	Cores []*Core

	fe  *frontEnd
	out []outcome
	// one backs Emit, so the per-instruction path allocates nothing.
	one [1]trace.Inst
}

// NewGroup builds one core per configuration behind a shared front end.
// The configurations may differ only in their timing parameters: it
// panics if their ICache, DCache or TargetCache differ.
func NewGroup(cfgs ...Config) *Group {
	if len(cfgs) == 0 {
		panic("pipeline: NewGroup needs at least one config")
	}
	g := &Group{fe: newFrontEnd(cfgs[0])}
	for _, cfg := range cfgs {
		if cfg.ICache != cfgs[0].ICache || cfg.DCache != cfgs[0].DCache || cfg.TargetCache != cfgs[0].TargetCache {
			panic(fmt.Sprintf("pipeline: NewGroup members need one front-end config: %+v/%+v/%v vs %+v/%+v/%v",
				cfg.ICache, cfg.DCache, cfg.TargetCache, cfgs[0].ICache, cfgs[0].DCache, cfgs[0].TargetCache))
		}
		g.Cores = append(g.Cores, newCore(cfg))
	}
	return g
}

// EmitBatch implements trace.BatchSink.
func (g *Group) EmitBatch(batch []trace.Inst) {
	if len(batch) > cap(g.out) {
		g.out = make([]outcome, len(batch))
	}
	out := g.out[:len(batch)]
	g.fe.annotate(batch, out)
	for _, c := range g.Cores {
		c.time(batch, out, g.fe.words)
	}
}

// Emit implements trace.Sink, timing one instruction on every core.
func (g *Group) Emit(in trace.Inst) {
	g.one[0] = in
	g.EmitBatch(g.one[:])
}
