// Package cache implements the set-associative cache simulator used for
// every locality study in the reproduction (Tables 3, Figures 3-8).
//
// The model is the classic trace-driven one the paper's cachesim5 used:
// single-level split I/D caches, LRU replacement, write-allocate
// write-back data cache, with miss classification (compulsory vs. other)
// and phase attribution (application execution vs. JIT translation).
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// Name labels the cache in reports ("I" or "D" conventionally).
	Name string
	// Size is the capacity in bytes. Must be a power of two.
	Size int
	// LineSize is the block size in bytes. Must be a power of two.
	LineSize int
	// Assoc is the set associativity. Size must be divisible by
	// LineSize*Assoc.
	Assoc int
	// WriteAllocate selects write-allocate (true, the default in the
	// paper's discussion) or write-no-allocate behaviour for the A1
	// ablation.
	WriteAllocate bool
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.Size&(c.Size-1) != 0:
		return fmt.Errorf("cache %s: size %d not a positive power of two", c.Name, c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineSize)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: associativity %d not positive", c.Name, c.Assoc)
	case c.Size%(c.LineSize*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line %d x assoc %d",
			c.Name, c.Size, c.LineSize, c.Assoc)
	}
	return nil
}

// Stats accumulates access outcomes.
type Stats struct {
	Reads       uint64 // read (or instruction-fetch) references
	Writes      uint64 // write references
	ReadMisses  uint64
	WriteMisses uint64
	// Compulsory counts misses to lines never seen before by this cache
	// (cold misses, the class dominating JIT code installation).
	Compulsory uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// Refs returns total references.
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses/references, or 0 when empty.
func (s Stats) MissRate() float64 {
	if r := s.Refs(); r > 0 {
		return float64(s.Misses()) / float64(r)
	}
	return 0
}

// WriteMissFrac returns the fraction of all misses that are write misses
// (Figure 3's metric).
func (s Stats) WriteMissFrac() float64 {
	if m := s.Misses(); m > 0 {
		return float64(s.WriteMisses) / float64(m)
	}
	return 0
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadMisses += o.ReadMisses
	s.WriteMisses += o.WriteMisses
	s.Compulsory += o.Compulsory
	s.Writebacks += o.Writebacks
}

// lineSet is a set of line addresses kept as a sparse bitmap: one
// 4096-line page per touched region of the address space. A trace's
// footprint is a few dense regions (code, heap, stack, class data), so
// the set costs about a bit per touched line instead of a map entry
// each, which matters when one run feeds dozens of caches.
type lineSet map[uint64]*[lineSetWords]uint64

const lineSetWords = 64 // 64 words x 64 bits = 4096 lines per page

// add inserts lineAddr and reports whether it was absent.
func (s lineSet) add(lineAddr uint64) bool {
	page := s[lineAddr>>12]
	if page == nil {
		page = new([lineSetWords]uint64)
		s[lineAddr>>12] = page
	}
	w, bit := &page[(lineAddr>>6)%lineSetWords], uint64(1)<<(lineAddr%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set sequence number; higher = more recent.
	lru uint64
}

// Cache is one simulated cache.
type Cache struct {
	cfg       Config
	sets      [][]line
	numSets   int
	lineShift uint
	setShift  uint
	setMask   uint64
	tick      uint64
	seen      lineSet // line addresses ever touched, for compulsory classification
	Stats     Stats
	// PhaseStats splits outcomes by a caller-set phase index (the JIT
	// translate-isolation study). Callers index it with trace.Phase.
	PhaseStats [3]Stats
	phase      int
	// ps caches &PhaseStats[phase] so the per-access path doesn't
	// re-index; SetPhase keeps it current.
	ps *Stats
}

// New builds a cache from cfg. It panics on an invalid configuration;
// callers constructing configs from user input should Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		numSets:   numSets,
		lineShift: shift,
		setShift:  uintLog2(numSets),
		setMask:   uint64(numSets - 1),
		seen:      make(lineSet),
	}
	c.ps = &c.PhaseStats[0]
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetPhase sets the phase index used to attribute subsequent accesses.
func (c *Cache) SetPhase(p int) {
	if p >= 0 && p < len(c.PhaseStats) {
		c.phase = p
		c.ps = &c.PhaseStats[p]
	}
}

// Access simulates one reference and reports whether it hit. write
// selects a store; for an instruction cache pass write=false.
func (c *Cache) Access(addr uint64, write bool) bool {
	var writes uint64
	if write {
		writes = 1
	}
	return c.ref(addr>>c.lineShift, 1, writes, write, c.ps)
}

// ref simulates a run of n consecutive references to lineAddr, writes
// of them stores, attributed to ps, and reports whether the first hit.
// The first reference, a write when firstWrite, takes the full path:
// hit or miss, compulsory classification, victim choice and writeback.
// It leaves the line resident and most recent in its set, so the rest
// hit: they only advance tick and the line's lru, and a write among
// them makes the line dirty. A write miss in a write-no-allocate cache
// leaves the line absent, so there a run must be a single reference.
func (c *Cache) ref(lineAddr, n, writes uint64, firstWrite bool, ps *Stats) bool {
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setShift
	reads := n - writes
	c.tick += n
	c.Stats.Reads += reads
	c.Stats.Writes += writes
	ps.Reads += reads
	ps.Writes += writes

	// Hit path.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			if writes > 0 {
				set[i].dirty = true
			}
			return true
		}
	}

	// Miss.
	if firstWrite {
		c.Stats.WriteMisses++
		ps.WriteMisses++
	} else {
		c.Stats.ReadMisses++
		ps.ReadMisses++
	}
	if c.seen.add(lineAddr) {
		c.Stats.Compulsory++
		ps.Compulsory++
	}
	if firstWrite && !c.cfg.WriteAllocate {
		// Write-no-allocate: the store goes around the cache.
		return false
	}

	// Fill: choose invalid way or LRU victim.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].dirty {
		c.Stats.Writebacks++
		ps.Writebacks++
	}
fill:
	set[victim] = line{tag: tag, valid: true, dirty: writes > 0, lru: c.tick}
	return false
}

// InstallLine makes addr's line present and dirty without counting a
// reference. It models the paper's §6 proposal of generating code
// directly into the (writable) I-cache: the A2 ablation calls this on the
// I-cache at installation time instead of storing through the D-cache.
func (c *Cache) InstallLine(addr uint64) {
	lineAddr := addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	set := c.sets[setIdx]
	tag := lineAddr >> c.setShift
	c.tick++
	c.seen.add(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			set[i].dirty = true
			return
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: true, lru: c.tick}
}

// Flush invalidates all lines (contents only; statistics and compulsory
// history are preserved).
func (c *Cache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
	}
}

func uintLog2(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}
