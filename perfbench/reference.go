package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"jrs/internal/harness"
)

// writeReferences renders every experiment of every workload serially
// and stores the reports, plus the simulated facts of every plain-mode
// stream of the workload's programs, under reference/<programs>/. Run
// it only on a commit whose outputs are known good: the timed and
// traced runs compare against these files byte for byte.
func writeReferences(cfg config) error {
	factsDone := make(map[string]bool)
	for _, s := range specs {
		g, err := resolveGrid(s, cfg.programs, "")
		if err != nil {
			return err
		}
		dir := filepath.Join(cfg.refRoot(), g.programKey())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, e := range g.exps {
			res, err := e.RunWith(g.opts(), &harness.Runner{Workers: 1})
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name+".txt"), []byte(res.Render()), 0o644); err != nil {
				return err
			}
		}
		if factsDone[dir] {
			continue
		}
		factsDone[dir] = true
		var streams []stream
		for _, w := range g.programs {
			for _, m := range []harness.Mode{harness.ModeInterp, harness.ModeJIT, harness.ModeAOT} {
				streams = append(streams, stream{w: w, scale: w.BenchN, mode: m})
			}
		}
		l := newLedger()
		if err := l.run(g.programs, streams); err != nil {
			return err
		}
		data, err := json.MarshalIndent(l.facts, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "facts.json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d stream facts to %s\n", len(l.facts), dir)
	}
	return nil
}

// printLedger writes the traced run's per-layer ledger and per-experiment
// host shares in a readable table.
func printLedger(w io.Writer, workload string, res *result, cen census, shares map[string]float64) {
	fmt.Fprintf(w, "perfbench: %s traced run: %d cells, %d groups, %d distinct streams (%d groups not one plain stream), %d instructions regenerated per pass\n",
		workload, cen.cells, cen.groups, len(cen.streams), cen.otherGroups, cen.instsRegenerate)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	exps := make([]string, 0, len(shares))
	for n := range shares {
		exps = append(exps, n)
	}
	sort.Slice(exps, func(i, j int) bool { return shares[exps[i]] > shares[exps[j]] })
	fmt.Fprintln(w, "  host-time share of the serial pass by experiment:")
	for _, n := range exps {
		fmt.Fprintf(w, "    %-20s %6.1f%%\n", n, 100*shares[n])
	}
}
