// Command perfbench is the repository's benchmark. It measures jrs from
// the outside, by timing calls into the public harness, dist and
// simulator packages, and prints one JSON result line. README.md in this
// directory documents the workloads and every metric.
//
//	perfbench -workload sweep|superscalar|dist-hello -seed N -seconds S -trace 0|1
//
// With -trace 0 it runs timed passes of the workload, each in a fresh
// child process, until -seconds have passed, and reports the end-to-end
// metrics. With -trace 1 it makes one traced run that records spans
// around every call into the program and a per-layer replay ledger.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchDir is the benchmark's directory, relative to the checkout root.
const benchDir = "perfbench"

// setupProbes is how many extra set-up-only children a timed run makes,
// so set-up time is a median even when only one pass fits.
const setupProbes = 5

// runBudget bounds a whole timed run; no pass starts after it would end.
const runBudget = 150 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	programs []string
	root     string
	out      string
}

func (c config) refRoot() string { return filepath.Join(c.root, benchDir, "reference") }

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: sweep, superscalar or dist-hello")
	fs.Int64Var(&cfg.seed, "seed", 0, "recorded only: the grid is fixed, so every seed asks for the same work")
	fs.IntVar(&cfg.seconds, "seconds", 20, "how long a timed run keeps starting passes")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = one traced run with the per-layer ledger")
	programs := fs.String("programs", "jess,db", "program pair of sweep and superscalar (held-out pairs need stored references)")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.StringVar(&cfg.out, "out", "", "directory for result files and scratch state (default <root>/.bench_build/perfbench)")
	child := fs.String("child", "", "internal: run one child step (setup or pass) and print its JSON")
	spawn := fs.Int64("spawn", 0, "internal: the parent's spawn time in Unix nanoseconds")
	writeRef := fs.Bool("write-reference", false, "render the reference reports and stream facts into the benchmark directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.programs = strings.Split(*programs, ",")
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build", "perfbench")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeRef {
		if err := writeReferences(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	s, ok := lookupSpec(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if *child != "" {
		return runChild(cfg, s, *child, time.Unix(0, *spawn))
	}
	var res *result
	var err error
	if cfg.trace == 1 {
		res, err = tracedRun(cfg, s)
	} else {
		res, err = timedRun(cfg, s)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return res.print(cfg)
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// details go to the result file only.
	details map[string]any
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the result file, the host line and, last, the result
// line on stdout.
func (r *result) print(cfg config) int {
	r.Correct = r.Failed == 0
	host := collectHost(cfg.root, filepath.Join(cfg.root, benchDir))
	detail := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"programs": cfg.programs, "host": host, "result": r}
	for k, v := range r.details {
		detail[k] = v
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, cfg.trace)
	if data, err := json.MarshalIndent(detail, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(cfg.out, name), data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
		}
	}
	hostLine, _ := json.Marshal(host)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("host: %s\n%s\n", hostLine, line)
	return 0
}

// passResult is what one child process reports.
type passResult struct {
	Setup    float64  `json:"setup_s"`
	Wall     float64  `json:"wall_s"`
	CPU      float64  `json:"cpu_s"`
	RSSMB    float64  `json:"peak_rss_mb"`
	Cells    int      `json:"cells"`
	Failed   int      `json:"failed"`
	Problems []string `json:"problems,omitempty"`
	// ColdS and WarmS split a dist-hello pass into its submissions.
	ColdS float64 `json:"cold_s,omitempty"`
	WarmS float64 `json:"warm_s,omitempty"`
}

// runChild is a child process: set up (resolve the grid, read the
// references) and, for "pass", run one pass at Workers = nproc.
func runChild(cfg config, s spec, step string, spawned time.Time) int {
	g, err := resolveGrid(s, cfg.programs, cfg.refRoot())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	pr := passResult{Setup: time.Since(spawned).Seconds()}
	switch step {
	case "setup":
	case "pass":
		if err := g.timedPass(&pr, runtime.NumCPU(), cfg.out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child step %q\n", step)
		return 2
	}
	data, _ := json.Marshal(pr)
	fmt.Println(string(data))
	return 0
}

// timedPass runs one untraced pass and fills in its measurements. A
// pass whose reports differ from the references counts every one of its
// cells as failed.
func (g *grid) timedPass(pr *passResult, workers int, scratch string) error {
	u0, t0 := readUsage(), time.Now()
	if g.spec.dist {
		cold, warm, err := g.distPass(nil, "", scratch, workers)
		if err != nil {
			return err
		}
		pr.Wall = time.Since(t0).Seconds()
		pr.ColdS, pr.WarmS = cold.wall.Seconds(), warm.wall.Seconds()
		pr.Problems = g.checkDist(cold, warm, len(g.groups()))
	} else {
		_, bad, err := g.localPass(nil, "", workers)
		if err != nil {
			return err
		}
		pr.Wall = time.Since(t0).Seconds()
		for _, name := range bad {
			pr.Problems = append(pr.Problems, name+": report differs from reference")
		}
	}
	u1 := readUsage()
	pr.CPU = (u1.cpu - u0.cpu).Seconds()
	pr.RSSMB = float64(u1.maxRSSB) / (1 << 20)
	pr.Cells = g.cells()
	if len(pr.Problems) > 0 {
		pr.Failed = pr.Cells
	}
	return nil
}

// spawnChild runs this binary as a child step and decodes its report.
func spawnChild(ctx context.Context, cfg config, step string) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, "-child", step, "-workload", cfg.workload,
		"-programs", strings.Join(cfg.programs, ","), "-root", cfg.root, "-out", cfg.out,
		"-spawn", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("child %s: %w", step, err)
	}
	var pr passResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &pr); err != nil {
		return passResult{}, fmt.Errorf("child %s: decode: %w", step, err)
	}
	return pr, nil
}

// timedRun measures the end-to-end metrics: set-up probes, then passes
// until -seconds have passed (at least one), each in its own process.
func timedRun(cfg config, s spec) (*result, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runBudget+25*time.Second)
	defer cancel()
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		pr, err := spawnChild(ctx, cfg, "setup")
		if err != nil {
			return nil, err
		}
		setups = append(setups, pr.Setup)
	}
	var passes []passResult
	res := &result{}
	for {
		pr, err := spawnChild(ctx, cfg, "pass")
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
		setups = append(setups, pr.Setup)
		res.Attempted += pr.Cells
		res.Failed += pr.Failed
		for _, p := range pr.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
		}
		elapsed := time.Since(start)
		if elapsed >= time.Duration(cfg.seconds)*time.Second ||
			elapsed+time.Duration(pr.Wall*float64(time.Second)) > runBudget {
			break
		}
	}
	pick := func(f func(passResult) float64) []float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return vs
	}
	walls := pick(func(p passResult) float64 { return p.Wall })
	res.set("wall_s", median(walls), "s")
	res.set("cpu_s", median(pick(func(p passResult) float64 { return p.CPU })), "s")
	res.set("peak_rss_mb", median(pick(func(p passResult) float64 { return p.RSSMB })), "MB")
	res.set("setup_s", median(setups), "s")
	res.details = map[string]any{"passes": passes, "setup_probes_s": setups[:setupProbes],
		"fail_frac": float64(res.Failed) / float64(max(res.Attempted, 1))}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, wall median %.3fs (min %.3fs max %.3fs), fail_frac %d/%d\n",
		cfg.workload, len(passes), median(walls), slices.Min(walls), slices.Max(walls), res.Failed, res.Attempted)
	return res, nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
