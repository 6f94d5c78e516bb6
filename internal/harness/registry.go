package harness

import (
	"fmt"
	"sort"
)

// Renderer is any experiment result.
type Renderer interface{ Render() string }

// Experiment is a registered experiment.
type Experiment struct {
	Name string
	// Desc maps it to the paper artifact.
	Desc string
	// Plan enumerates the experiment's simulation cells without running
	// them; the returned Plan's Result() renders once its cells are
	// filled by a Runner.
	Plan func(Options) *Plan
}

// planOf adapts a typed plan builder to the registry signature.
func planOf[T Renderer](build func(Options) (*Plan, T)) func(Options) *Plan {
	return func(o Options) *Plan {
		p, _ := build(o)
		return p
	}
}

// runPlan builds a typed plan and runs it serially (one worker, no
// cache): the body of every typed entry point (Fig1, Table2, ...).
func runPlan[T Renderer](build func(Options) (*Plan, T), o Options) (T, error) {
	p, res := build(o)
	if err := serialRunner().RunPlans(p); err != nil {
		var zero T
		return zero, err
	}
	return res, nil
}

// Run executes the experiment serially (one worker, no cache).
func (e Experiment) Run(o Options) (Renderer, error) {
	return e.RunWith(o, serialRunner())
}

// RunWith executes the experiment on the given runner.
func (e Experiment) RunWith(o Options, r *Runner) (Renderer, error) {
	p := e.Plan(o)
	if err := r.RunPlans(p); err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: JIT translate/execute breakdown, oracle policy, JIT/interp ratios",
			planOf(fig1Plan)},
		{"table1", "Table 1: memory requirement of interpreter vs JIT",
			planOf(table1Plan)},
		{"fig2", "Figure 2: native instruction mix per execution mode",
			planOf(fig2Plan)},
		{"table2", "Table 2: branch misprediction rates for four predictors",
			planOf(table2Plan)},
		{"table3", "Table 3: L1 I/D cache references and misses",
			planOf(table3Plan)},
		{"fig3", "Figure 3: share of data misses that are writes",
			planOf(fig3Plan)},
		{"fig4", "Figure 4: average miss rates vs compiled (C-like) code",
			planOf(fig4Plan)},
		{"fig5", "Figure 5: cache misses inside the translate portion",
			planOf(fig5Plan)},
		{"fig6", "Figure 6: miss behaviour over time (db)",
			planOf(fig6Plan)},
		{"fig7", "Figure 7: associativity sweep",
			planOf(fig7Plan)},
		{"fig8", "Figure 8: line-size sweep",
			planOf(fig8Plan)},
		{"fig9", "Figure 9: IPC vs issue width",
			planOf(fig9Plan)},
		{"fig10", "Figure 10: normalized execution time vs issue width",
			planOf(fig10Plan)},
		{"fig11", "Figure 11: synchronization cases and thin-lock speedup",
			planOf(fig11Plan)},
		{"ablate-install", "A1/A2: code-installation policy (write-alloc / no-alloc / direct-to-I$)",
			planOf(ablateInstallPlan)},
		{"ablate-inline", "A3: JIT devirtualization on/off",
			planOf(ablateInlinePlan)},
		{"ablate-threshold", "A4: translate-policy sweep",
			planOf(ablateThresholdPlan)},
		{"ablate-scale", "input-size sensitivity of the translate share",
			planOf(ablateScalePlan)},
		{"ablate-indirect", "extension: target-cache indirect predictor vs BTB",
			planOf(ablateIndirectPlan)},
		{"ablate-tiered", "extension: tiered recompilation of hot methods",
			planOf(ablateTieredPlan)},
		{"ablate-interp-ilp", "extension: interpreter IPC scaling with a target cache",
			planOf(ablateInterpILPPlan)},
		{"ablate-devirt", "extension: whole-program devirtualization (none / local CHA / interprocedural)",
			planOf(ablateDevirtPlan)},
		{"ablate-elide", "extension: escape-based lock elision vs baseline synchronization",
			planOf(ablateElidePlan)},
		{"ablate-checks", "extension: sound bounds/null check elision vs full runtime checking",
			planOf(ablateChecksPlan)},
		{"ablate-ooo", "extension: OoO resource sweep (ROB size / RS count / LSQ depth)",
			planOf(ablateOoOPlan)},
		{"ablate-codecache", "extension: shared translation cache (cold vs warm, in-process vs disk, parallel sharing)",
			planOf(ablateCodeCachePlan)},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns all experiment names, sorted.
func Names() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// RunAll executes every experiment serially and concatenates the
// reports. Figure 10 shares Figure 9's superscalar runs instead of
// re-simulating (their cell keys are identical, so the batched runner
// deduplicates them).
func RunAll(o Options, progress func(name string)) (string, error) {
	var p func(Experiment)
	if progress != nil {
		p = func(e Experiment) { progress(e.Name) }
	}
	return RunAllWith(o, serialRunner(), p)
}

// RunAllWith executes every registered experiment on the given runner,
// batching all plans into a single RunPlans call so independent cells
// across experiments run concurrently, duplicate cells simulate once
// and each shared stream runs once for all of its probes. The report is
// identical to running each experiment serially.
func RunAllWith(o Options, r *Runner, progress func(e Experiment)) (string, error) {
	return RunSetWith(Experiments(), o, r, progress)
}

// RunSetWith is RunAllWith over the given experiments: one batched grid,
// rendered in the same sectioned format.
func RunSetWith(exps []Experiment, o Options, r *Runner, progress func(e Experiment)) (string, error) {
	plans := make([]*Plan, len(exps))
	for i, e := range exps {
		if progress != nil {
			progress(e)
		}
		plans[i] = e.Plan(o)
	}
	if err := r.RunPlans(plans...); err != nil {
		return "", err
	}
	out := ""
	for i, e := range exps {
		out += "## " + e.Name + " — " + e.Desc + "\n\n" + r.SafeRender(plans[i].Result()) + "\n"
	}
	return out, nil
}

// SafeRender renders a plan result; in KeepGoing mode a renderer
// panicking over zero-valued slots left by failed cells degrades to a
// placeholder instead of killing the degraded run it is reporting on.
func (r *Runner) SafeRender(res Renderer) (out string) {
	if r.KeepGoing {
		defer func() {
			if rec := recover(); rec != nil {
				out = fmt.Sprintf("(render failed: %v)\n", rec)
			}
		}()
	}
	return res.Render()
}
