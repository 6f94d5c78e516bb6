package cache

// State is a deep copy of everything a cache remembers: its counters,
// every way of every set, the tick, the attribution phase and the
// compulsory-miss history. Two caches that saw the same references have
// equal states.
type State struct {
	Stats      Stats
	PhaseStats [3]Stats
	Sets       [][]line
	Tick       uint64
	Phase      int
	Seen       map[uint64][lineSetWords]uint64
}

// StateOf returns c's state, for the external tests in this directory.
func StateOf(c *Cache) State {
	s := State{Stats: c.Stats, PhaseStats: c.PhaseStats, Tick: c.tick, Phase: c.phase,
		Sets: make([][]line, len(c.sets)), Seen: make(map[uint64][lineSetWords]uint64)}
	for i, set := range c.sets {
		s.Sets[i] = append([]line(nil), set...)
	}
	for k, page := range c.seen {
		s.Seen[k] = *page
	}
	return s
}
