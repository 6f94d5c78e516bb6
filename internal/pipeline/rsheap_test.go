package pipeline

import "testing"

// scanPool is the reservation-station pool the heap replaced: a slice
// scanned linearly for its earliest-issuing occupant.
type scanPool []uint64

func (p *scanPool) popMin() uint64 {
	s := *p
	minI := 0
	for i, v := range s {
		if v < s[minI] {
			minI = i
		}
	}
	m := s[minI]
	s[minI] = s[len(s)-1]
	*p = s[:len(s)-1]
	return m
}

// TestRSHeapMatchesLinearScan drives the heap and the linear scan with
// the same (dispatch, issue) sequences, ties included, at every pool
// size the grid uses and more: the freed minima, which are all the
// scheduler reads, must agree exactly.
func TestRSHeapMatchesLinearScan(t *testing.T) {
	seed := uint64(1)
	next := func(n uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % n
	}
	for n := 1; n <= 64; n++ {
		h := make(rsHeap, 0, n)
		var ref scanPool
		var dispatch uint64
		for step := 0; step < 4000; step++ {
			dispatch += next(2)
			full := len(ref) == n
			if full {
				want, got := ref.popMin(), h[0]
				if got != want {
					t.Fatalf("n=%d step %d: heap frees %d, scan frees %d", n, step, got, want)
				}
				dispatch = max(dispatch, got)
			}
			// Small offsets make equal issue cycles common.
			issue := dispatch + next(8)
			if full {
				h.replaceTop(issue)
			} else {
				h.push(issue)
			}
			ref = append(ref, issue)
		}
	}
}
