package cache

import (
	"testing"
	"testing/quick"

	"jrs/internal/trace"
)

func cfg(size, line, assoc int) Config {
	return Config{Name: "T", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: true}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "x", Size: 0, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 3000, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 1024, LineSize: 33, Assoc: 1},
		{Name: "x", Size: 1024, LineSize: 32, Assoc: 0},
		{Name: "x", Size: 1024, LineSize: 512, Assoc: 4}, // not divisible
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, c)
		}
	}
	if err := cfg(64<<10, 32, 2).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(cfg(1024, 32, 1))
	if c.Access(0x1000, false) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x101F, false) {
		t.Fatal("same line should hit")
	}
	if c.Access(0x1020, false) {
		t.Fatal("next line should miss")
	}
	if c.Stats.Compulsory != 2 {
		t.Fatalf("compulsory = %d, want 2", c.Stats.Compulsory)
	}
}

func TestConflictAndLRU(t *testing.T) {
	// 2-way, 2 sets: lines mapping to set 0 are multiples of 64.
	c := New(cfg(128, 32, 2))
	a0, a1, a2 := uint64(0), uint64(64), uint64(128)
	c.Access(a0, false)
	c.Access(a1, false)
	if !c.Access(a0, false) || !c.Access(a1, false) {
		t.Fatal("both ways should hit")
	}
	c.Access(a2, false) // evicts LRU = a0
	if c.Access(a0, false) {
		t.Fatal("a0 should have been evicted")
	}
	// Now a1 was LRU before a0's refill... verify a2 stays resident.
	if !c.Access(a2, false) {
		t.Fatal("a2 should still be resident")
	}
}

func TestWritebackCounting(t *testing.T) {
	c := New(cfg(64, 32, 1)) // 2 sets
	c.Access(0x0, true)      // dirty line in set 0
	c.Access(0x40, false)    // evicts dirty line -> writeback
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestWriteNoAllocate(t *testing.T) {
	c := New(Config{Name: "x", Size: 64, LineSize: 32, Assoc: 1, WriteAllocate: false})
	c.Access(0x0, true)
	if c.Stats.WriteMisses != 1 {
		t.Fatal("write should miss")
	}
	if c.Access(0x0, false) {
		t.Fatal("no-allocate: line must not be resident after write miss")
	}
}

func TestInstallLine(t *testing.T) {
	c := New(cfg(64, 32, 1))
	c.InstallLine(0x100)
	if !c.Access(0x100, false) {
		t.Fatal("installed line should hit")
	}
	if c.Stats.Misses() != 0 {
		t.Fatal("install must not count misses")
	}
}

func TestFlush(t *testing.T) {
	c := New(cfg(1024, 32, 2))
	c.Access(0x40, false)
	c.Flush()
	if c.Access(0x40, false) {
		t.Fatal("flushed line should miss")
	}
	if c.Stats.Compulsory != 1 {
		t.Fatalf("re-reference after flush is not compulsory: %d", c.Stats.Compulsory)
	}
}

func TestPhaseAttribution(t *testing.T) {
	c := New(cfg(1024, 32, 1))
	c.SetPhase(int(trace.PhaseTranslate))
	c.Access(0x40, true)
	c.SetPhase(int(trace.PhaseExec))
	c.Access(0x80, false)
	if c.PhaseStats[trace.PhaseTranslate].WriteMisses != 1 {
		t.Error("translate write miss not attributed")
	}
	if c.PhaseStats[trace.PhaseExec].ReadMisses != 1 {
		t.Error("exec read miss not attributed")
	}
}

// Property: misses never exceed references; compulsory never exceeds
// misses; hit+miss bookkeeping stays consistent across random access
// streams and geometries.
func TestInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool, geom uint8) bool {
		sizes := []int{512, 1024, 8192}
		lines := []int{16, 32, 64}
		assocs := []int{1, 2, 4}
		conf := cfg(
			sizes[int(geom)%len(sizes)],
			lines[int(geom/4)%len(lines)],
			assocs[int(geom/16)%len(assocs)],
		)
		if conf.Validate() != nil {
			return true // skip impossible geometry
		}
		c := New(conf)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats
		return s.Misses() <= s.Refs() &&
			s.Compulsory <= s.Misses() &&
			s.Refs() == uint64(len(addrs)) &&
			s.Writebacks <= s.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bitmap line set agrees with a plain map on membership,
// for addresses over the full 64-bit range, small addresses and a run
// straddling the first page boundary, each inserted twice.
func TestLineSetMatchesMap(t *testing.T) {
	f := func(addrs []uint64, offs []uint8) bool {
		var xs []uint64
		for _, a := range addrs {
			xs = append(xs, a, a>>40)
		}
		for _, o := range offs {
			xs = append(xs, 4032+uint64(o))
		}
		s, m := make(lineSet), make(map[uint64]bool)
		for pass := 0; pass < 2; pass++ {
			for _, x := range xs {
				if s.add(x) == m[x] {
					return false
				}
				m[x] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a larger cache of the same geometry never has more misses on
// the same (read-only) trace — inclusion property of LRU.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		small := New(cfg(256, 32, 8)) // fully assoc within few sets
		big := New(cfg(1024, 32, 32))
		for _, a := range addrs {
			aa := uint64(a)
			small.Access(aa, false)
			big.Access(aa, false)
		}
		return big.Stats.Misses() <= small.Stats.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 80, Writes: 20, ReadMisses: 5, WriteMisses: 15}
	if s.Refs() != 100 || s.Misses() != 20 {
		t.Fatal("refs/misses")
	}
	if s.MissRate() != 0.2 {
		t.Fatalf("miss rate %v", s.MissRate())
	}
	if s.WriteMissFrac() != 0.75 {
		t.Fatalf("write-miss frac %v", s.WriteMissFrac())
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.WriteMissFrac() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
	s2 := Stats{Reads: 1}
	s2.Add(s)
	if s2.Reads != 81 {
		t.Fatal("add")
	}
}

func TestHierarchy(t *testing.T) {
	h := PaperDefault()
	h.Emit(trace.Inst{PC: 0x1000, Class: trace.Load, Addr: 0x8000})
	h.Emit(trace.Inst{PC: 0x1004, Class: trace.Store, Addr: 0x8008})
	h.Emit(trace.Inst{PC: 0x1008, Class: trace.ALU})
	if h.I.Stats.Refs() != 3 {
		t.Fatalf("I refs = %d", h.I.Stats.Refs())
	}
	if h.D.Stats.Reads != 1 || h.D.Stats.Writes != 1 {
		t.Fatalf("D refs = %+v", h.D.Stats)
	}
}

func TestHierarchyDirectInstall(t *testing.T) {
	h := PaperDefault()
	h.DirectInstall = true
	h.CodeLow, h.CodeHigh = 0x100_0000, 0x200_0000
	h.Emit(trace.Inst{PC: 0x10, Class: trace.Store, Addr: 0x100_0040})
	if h.D.Stats.Writes != 0 {
		t.Fatal("install store should bypass D-cache")
	}
	// The installed line must hit on fetch.
	h.Emit(trace.Inst{PC: 0x100_0040, Class: trace.ALU})
	if h.I.Stats.Misses() != 1 { // only the first Emit's PC miss
		t.Fatalf("I misses = %d; installed line should hit", h.I.Stats.Misses())
	}
	// Non-code stores still go to D.
	h.Emit(trace.Inst{PC: 0x14, Class: trace.Store, Addr: 0x8000})
	if h.D.Stats.Writes != 1 {
		t.Fatal("regular store must reach D-cache")
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(PaperDefault(), 10)
	for i := 0; i < 25; i++ {
		s.Emit(trace.Inst{PC: uint64(i * 4096), Class: trace.ALU})
	}
	s.Finish()
	if len(s.Series) != 3 {
		t.Fatalf("windows = %d, want 3", len(s.Series))
	}
	var misses uint64
	for _, iv := range s.Series {
		misses += iv.IMisses
	}
	if misses != s.H.I.Stats.Misses() {
		t.Fatalf("window misses %d != total %d", misses, s.H.I.Stats.Misses())
	}
}
