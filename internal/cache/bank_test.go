package cache_test

import (
	"reflect"
	"testing"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/harness"
	"jrs/internal/mem"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// recorder keeps a copy of every instruction it receives.
type recorder struct{ insts []trace.Inst }

func (r *recorder) Emit(in trace.Inst) { r.insts = append(r.insts, in) }

// shape names a constructor of one bank member.
type shape struct {
	name string
	new  func() *cache.Hierarchy
}

func split(name string, size, line, assoc int) shape {
	return shape{name, func() *cache.Hierarchy {
		return cache.NewHierarchy(
			cache.Config{Name: "I", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: true},
			cache.Config{Name: "D", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: true})
	}}
}

// bankShapes returns the members the differential puts in one bank:
// every line size from 16 to 128 bytes at associativity 1 to 8, in a
// 1K cache that evicts all the time and an 8K one (Figures 7 and 8),
// Figure 3's data-only caches, Table 3's hierarchy, a write-no-allocate
// D-cache and a DirectInstall hierarchy (the A1/A2 ablation).
func bankShapes() []shape {
	var shapes []shape
	for _, size := range []int{1 << 10, 8 << 10} {
		for _, line := range []int{16, 32, 64, 128} {
			for _, assoc := range []int{1, 2, 4, 8} {
				shapes = append(shapes, split("split", size, line, assoc))
			}
		}
	}
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		size := size
		shapes = append(shapes, shape{"fig3 D-only", func() *cache.Hierarchy {
			return &cache.Hierarchy{D: cache.New(
				cache.Config{Name: "D", Size: size, LineSize: 32, Assoc: 1, WriteAllocate: true})}
		}})
	}
	shapes = append(shapes, shape{"table3", cache.PaperDefault})
	for _, size := range []int{1 << 10, 64 << 10} {
		size := size
		shapes = append(shapes, shape{"write-no-allocate", func() *cache.Hierarchy {
			return cache.NewHierarchy(
				cache.Config{Name: "I", Size: size, LineSize: 32, Assoc: 2, WriteAllocate: true},
				cache.Config{Name: "D", Size: size, LineSize: 32, Assoc: 4, WriteAllocate: false})
		}})
		shapes = append(shapes, shape{"direct-install", func() *cache.Hierarchy {
			h := split("", size, 32, 2).new()
			h.DirectInstall, h.CodeLow, h.CodeHigh = true, mem.CodeCacheBase, mem.ClassBase
			return h
		}})
	}
	return shapes
}

// perReference is the path a bank replaces: every reference of tr goes
// to h's caches through Access, one at a time, each cache attributing
// it to the instruction's phase.
func perReference(h *cache.Hierarchy, tr []trace.Inst) {
	for _, in := range tr {
		if h.I != nil {
			h.I.SetPhase(int(in.Phase))
			h.I.Access(in.PC, false)
		}
		h.D.SetPhase(int(in.Phase))
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

// states returns the state of h's I-cache (zero when data-only) and
// D-cache.
func states(h *cache.Hierarchy) [2]cache.State {
	var s [2]cache.State
	if h.I != nil {
		s[0] = cache.StateOf(h.I)
	}
	s[1] = cache.StateOf(h.D)
	return s
}

// sameState reports the first part of got that differs from want.
func sameState(got, want [2]cache.State) string {
	for side, name := range []string{"I", "D"} {
		g, w := got[side], want[side]
		switch {
		case g.Stats != w.Stats:
			return name + " Stats"
		case g.PhaseStats != w.PhaseStats:
			return name + " PhaseStats"
		case g.Tick != w.Tick:
			return name + " tick"
		case g.Phase != w.Phase:
			return name + " phase"
		case !reflect.DeepEqual(g.Sets, w.Sets):
			return name + " sets"
		case !reflect.DeepEqual(g.Seen, w.Seen):
			return name + " seen"
		}
	}
	return ""
}

// syntheticTrace is a deterministic stream that reuses lines the way a
// real one does, with the cases a run must get right placed first.
func syntheticTrace(n int, seed uint64) []trace.Inst {
	tr := []trace.Inst{
		// A phase change inside a same-line run, on both sides.
		{PC: 0x1000, Class: trace.Load, Addr: 0x8000, Phase: trace.PhaseExec},
		{PC: 0x1004, Class: trace.Store, Addr: 0x8004, Phase: trace.PhaseExec},
		{PC: 0x1008, Class: trace.Store, Addr: 0x8008, Phase: trace.PhaseTranslate},
		{PC: 0x100c, Class: trace.Load, Addr: 0x800c, Phase: trace.PhaseTranslate},
		// Read then write, and write then read, within one line.
		{PC: 0x1010, Class: trace.Load, Addr: 0x9000},
		{PC: 0x1014, Class: trace.Store, Addr: 0x9008},
		{PC: 0x1018, Class: trace.Store, Addr: 0xa000},
		{PC: 0x101c, Class: trace.Load, Addr: 0xa004},
		// A code store, then a fetch of the stored line.
		{PC: 0x1020, Class: trace.Store, Addr: mem.CodeCacheBase + 0x40},
		{PC: mem.CodeCacheBase + 0x40, Class: trace.ALU},
		// An out-of-range phase keeps the previous one, as SetPhase does.
		{PC: 0x1024, Class: trace.Load, Addr: 0x9004, Phase: trace.NumPhases + 2},
		{PC: 0x1028, Class: trace.Store, Addr: 0x9008, Phase: trace.PhaseLoad},
	}
	x := seed*0x9e3779b97f4a7c15 | 1
	rnd := func(k uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % k
	}
	pc, addr, phase := uint64(0x10000), uint64(0x20000), trace.PhaseExec
	for len(tr) < n {
		if rnd(64) == 0 {
			phase = trace.Phase(rnd(uint64(trace.NumPhases)))
		}
		switch rnd(32) {
		case 0:
			pc = 0x10000 + rnd(16<<10)&^3
		case 1:
			pc = mem.CodeCacheBase + rnd(16<<10)&^3
		default:
			pc += 4
		}
		in := trace.Inst{PC: pc, Phase: phase}
		switch c := rnd(10); {
		case c < 3:
			in.Class = trace.Load
		case c < 5:
			in.Class = trace.Store
		default:
			in.Class = trace.ALU
		}
		if in.Class.IsMem() {
			switch rnd(8) {
			case 0, 1, 2, 3: // same address: long same-line runs
			case 4, 5:
				addr = addr&^63 + rnd(64)
			case 6:
				addr = 0x20000 + rnd(64<<10)
			default:
				addr = mem.CodeCacheBase + rnd(16<<10)
			}
			in.Addr = addr
		}
		tr = append(tr, in)
	}
	return tr
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

func perInst(s trace.Sink, tr []trace.Inst) {
	for _, in := range tr {
		s.Emit(in)
	}
}

// TestBankMatchesPerReference is the differential against the path a
// bank replaces: every member of one bank, and every hierarchy fed on
// its own, ends with the counters and the full internal state of the
// same caches driven one reference at a time through Access, however
// the stream is cut into batches. Batches of 1, 7 and 1023 cut long
// same-line runs at batch boundaries.
func TestBankMatchesPerReference(t *testing.T) {
	streams := map[string][]trace.Inst{"synthetic": syntheticTrace(40000, 1)}
	hello, _ := workloads.ByName("hello")
	for _, mode := range []harness.Mode{harness.ModeInterp, harness.ModeJIT, harness.ModeAOT} {
		rec := &recorder{}
		if _, err := harness.Run(hello, hello.BenchN, mode, core.Config{}, rec); err != nil {
			t.Fatalf("record hello/%v: %v", mode, err)
		}
		streams["hello/"+mode.String()] = rec.insts
	}
	feeds := map[string]func(trace.Sink, []trace.Inst){
		"emit":      perInst,
		"batch1":    inBatches(1),
		"batch7":    inBatches(7),
		"batch1023": inBatches(1023),
	}
	shapes := bankShapes()
	for name, tr := range streams {
		want := make([][2]cache.State, len(shapes))
		for i, s := range shapes {
			h := s.new()
			perReference(h, tr)
			want[i] = states(h)
		}
		for feedName, feed := range feeds {
			hs := make([]*cache.Hierarchy, len(shapes))
			for i, s := range shapes {
				hs[i] = s.new()
			}
			feed(cache.NewBank(hs...), tr)
			for i, h := range hs {
				if diff := sameState(states(h), want[i]); diff != "" {
					t.Errorf("%s fed %s: bank member %d (%s): %s differ", name, feedName, i, shapes[i].name, diff)
				}
			}
			for i, s := range shapes {
				if s.name == "fig3 D-only" {
					continue // a Hierarchy fed on its own has both sides
				}
				h := s.new()
				feed(h, tr)
				if diff := sameState(states(h), want[i]); diff != "" {
					t.Errorf("%s fed %s: hierarchy %d (%s) alone: %s differ", name, feedName, i, s.name, diff)
				}
			}
		}
	}
}

// FuzzBankReplay runs random members (line size, associativity, set
// count, write policy, data-only, DirectInstall) over random
// line-reusing traces in random batch sizes against the per-reference
// path.
func FuzzBankReplay(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 13, 0x41, 27, 0x85, 9, 0x23}, uint16(7))
	f.Add(uint64(2), []byte{5, 2, 23, 0x40}, uint16(1023))
	f.Add(uint64(3), []byte{31, 0xff, 2, 0x20, 17, 0x05}, uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, geom []byte, batch uint16) {
		var shapes []shape
		for k := 0; k+1 < len(geom) && len(shapes) < 8; k += 2 {
			a, b := geom[k], geom[k+1]
			line := 1 << (a % 8)
			assoc := 1 << (a / 8 % 4)
			size := line * assoc << (b % 8)
			wa, dataOnly, direct := b&0x40 == 0, b&0x20 != 0, b&0x80 != 0
			shapes = append(shapes, shape{"fuzz", func() *cache.Hierarchy {
				d := cache.New(cache.Config{Name: "D", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: wa})
				if dataOnly && !direct {
					return &cache.Hierarchy{D: d}
				}
				i := cache.New(cache.Config{Name: "I", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: true})
				return &cache.Hierarchy{I: i, D: d, DirectInstall: direct,
					CodeLow: mem.CodeCacheBase, CodeHigh: mem.ClassBase}
			}})
		}
		tr := syntheticTrace(3000, seed)
		hs := make([]*cache.Hierarchy, len(shapes))
		for i, s := range shapes {
			hs[i] = s.new()
		}
		inBatches(int(batch%1024)+1)(cache.NewBank(hs...), tr)
		for i, s := range shapes {
			ref := s.new()
			perReference(ref, tr)
			if diff := sameState(states(hs[i]), states(ref)); diff != "" {
				t.Fatalf("member %d (geom % x): %s differ", i, geom[2*i:2*i+2], diff)
			}
		}
	})
}

// TestBankEmitAllocatesNothing pins the steady state: a bank reuses its
// run buffers per line size, so a warm stream allocates nothing on
// either delivery path, for a bank of every shape and for a hierarchy
// fed on its own.
func TestBankEmitAllocatesNothing(t *testing.T) {
	tr := syntheticTrace(4096, 9)
	var hs []*cache.Hierarchy
	for _, s := range bankShapes() {
		hs = append(hs, s.new())
	}
	sinks := map[string]trace.Sink{
		"Bank":      cache.NewBank(hs...),
		"Hierarchy": cache.PaperDefault(),
	}
	feeds := map[string]func(trace.Sink, []trace.Inst){
		"Emit":      perInst,
		"EmitBatch": inBatches(1024),
	}
	for sinkName, s := range sinks {
		for feedName, feed := range feeds {
			feed(s, tr) // warm: every touched line is in the compulsory history
			if n := testing.AllocsPerRun(5, func() { feed(s, tr) }); n != 0 {
				t.Errorf("%s.%s: %.1f allocations per %d-instruction pass, want 0",
					sinkName, feedName, n, len(tr))
			}
		}
	}
}
