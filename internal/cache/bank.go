package cache

import "jrs/internal/trace"

// A run is a maximal sequence of consecutive references to one line in
// one phase, on one side (I or D) of a batch. Interpreter streams make
// about five I-fetches and one and a half data references per run at
// 32-byte lines, so replaying runs instead of references is where a
// bank saves its time.
type run struct {
	line       uint64 // line address: the address shifted by log2(line size)
	n          uint32 // references
	writes     uint32 // stores among them
	phase      trace.Phase
	firstWrite bool
}

// lineRuns decodes batches into runs for one line size and replays them
// into that size's caches.
type lineRuns struct {
	shift        uint
	i, d         []*Cache // caches replaying I-side and D-side runs
	iruns, druns []run    // reused every batch
}

// Bank is the trace sink that owns every cache attached to one stream.
// For each batch it decodes the I-side and D-side runs once per line
// size and replays them into each member cache: a run's first reference
// takes the full path of Access, and the rest count as hits on the line
// that reference left resident and most recent in its set. The results
// equal feeding every reference to every cache through Access (see
// DESIGN.md, "Reference runs and the cache bank").
//
// Two kinds of member keep the per-reference path, because the rest of
// a run is not sure to hit: a write-no-allocate D-cache (a write miss
// leaves the line absent) and a DirectInstall hierarchy (code stores
// install lines into the I-cache between its fetches).
type Bank struct {
	members []*Hierarchy
	sizes   []*lineRuns
	walked  []*Hierarchy // members with a per-reference side
	// phase is the stream's phase after the last batch. Like SetPhase,
	// an out-of-range instruction phase keeps the previous one.
	phase trace.Phase
}

// NewBank builds a bank over the caches of hs. A hierarchy with a nil I
// is a data-only member. Set each hierarchy's DirectInstall fields
// before building the bank, and feed its caches through the bank alone.
func NewBank(hs ...*Hierarchy) *Bank {
	b := &Bank{members: hs}
	for _, h := range hs {
		if h.DirectInstall {
			b.walked = append(b.walked, h)
			continue
		}
		if h.I != nil {
			l := b.lineSize(h.I)
			l.i = append(l.i, h.I)
		}
		if h.D.cfg.WriteAllocate {
			l := b.lineSize(h.D)
			l.d = append(l.d, h.D)
		} else {
			b.walked = append(b.walked, h)
		}
	}
	return b
}

// lineSize returns the decoder of c's line size, adding it if new.
func (b *Bank) lineSize(c *Cache) *lineRuns {
	for _, l := range b.sizes {
		if l.shift == c.lineShift {
			return l
		}
	}
	l := &lineRuns{shift: c.lineShift}
	b.sizes = append(b.sizes, l)
	return l
}

// Members returns the hierarchies the bank was built over, so that
// several banks of one stream can be merged into one.
func (b *Bank) Members() []*Hierarchy { return b.members }

// Emit implements trace.Sink.
func (b *Bank) Emit(in trace.Inst) { b.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.BatchSink.
func (b *Bank) EmitBatch(batch []trace.Inst) {
	end := b.phase
	for _, l := range b.sizes {
		end = l.decode(batch, b.phase)
		for _, c := range l.i {
			c.replay(l.iruns)
		}
		for _, c := range l.d {
			c.replay(l.druns)
		}
	}
	for _, h := range b.walked {
		h.walk(batch)
	}
	// Leave every replayed cache attributing to the stream's phase, as
	// the per-reference path would.
	b.phase = end
	for _, l := range b.sizes {
		for _, c := range l.i {
			c.SetPhase(int(end))
		}
		for _, c := range l.d {
			c.SetPhase(int(end))
		}
	}
}

// decode fills l.iruns and l.druns with the batch's instruction-fetch
// runs and load/store runs, starting in phase, and returns the phase
// after the batch. An instruction phase out of range keeps the previous
// one, as SetPhase does. The open runs stay in locals until they end.
func (l *lineRuns) decode(batch []trace.Inst, phase trace.Phase) trace.Phase {
	iruns, druns := l.iruns[:0], l.druns[:0]
	var ir, dr run // n == 0: no open run
	for k := range batch {
		in := &batch[k]
		if in.Phase != phase && in.Phase < trace.NumPhases {
			phase = in.Phase
		}
		if ln := in.PC >> l.shift; ir.n > 0 && ln == ir.line && phase == ir.phase {
			ir.n++
		} else {
			if ir.n > 0 {
				iruns = append(iruns, ir)
			}
			ir = run{line: ln, n: 1, phase: phase}
		}
		if in.Class != trace.Load && in.Class != trace.Store {
			continue
		}
		write := in.Class == trace.Store
		if ln := in.Addr >> l.shift; dr.n > 0 && ln == dr.line && phase == dr.phase {
			dr.n++
			if write {
				dr.writes++
			}
		} else {
			if dr.n > 0 {
				druns = append(druns, dr)
			}
			dr = run{line: ln, n: 1, phase: phase, firstWrite: write}
			if write {
				dr.writes = 1
			}
		}
	}
	if ir.n > 0 {
		iruns = append(iruns, ir)
	}
	if dr.n > 0 {
		druns = append(druns, dr)
	}
	l.iruns, l.druns = iruns, druns
	return phase
}

// replay feeds runs to c, one ref each. c is write-allocate, so every
// run's first reference leaves the line resident and most recent in its
// set, and no other reference reaches c before the run ends.
func (c *Cache) replay(runs []run) {
	for k := range runs {
		r := &runs[k]
		c.ref(r.line, uint64(r.n), uint64(r.writes), r.firstWrite, &c.PhaseStats[r.phase])
	}
}

// walk is the per-reference path of h's sides that cannot replay runs:
// its write-no-allocate D-cache, or both caches of a DirectInstall
// hierarchy, whose code stores install lines into the I-cache.
func (h *Hierarchy) walk(batch []trace.Inst) {
	const noPhase = trace.Phase(0xFF)
	cur := noPhase
	for k := range batch {
		in := &batch[k]
		if in.Phase != cur {
			cur = in.Phase
			h.D.SetPhase(int(cur))
			if h.DirectInstall {
				h.I.SetPhase(int(cur))
			}
		}
		if h.DirectInstall {
			h.I.Access(in.PC, false)
		}
		switch in.Class {
		case trace.Load:
			h.D.Access(in.Addr, false)
		case trace.Store:
			if h.DirectInstall && in.Addr >= h.CodeLow && in.Addr < h.CodeHigh {
				h.I.InstallLine(in.Addr)
				continue
			}
			h.D.Access(in.Addr, true)
		}
	}
}
