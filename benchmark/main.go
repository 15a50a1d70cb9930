// Command benchmark is the repository's one benchmark: four workloads
// over the unmodified program in its production-default configuration,
// each checking its outputs in the same run that produces its numbers.
//
//	go run ./benchmark -workload protect|ingest|catchup|lockpath -seed N -seconds S -trace 0|1
//
// The last line of standard output is the result object the driver
// reads; the line before it is the full envelope (environment, named
// metrics with their slice quartiles, per-layer metrics). README.md
// explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"communix/benchmark/trace"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	duration time.Duration // length of the measured phase
	trace    bool
	// tiny shrinks every input to smoke-test size.
	tiny bool
	// root is the run's scratch directory (data directories, WALs); it
	// is removed on exit.
	root string
	// rec records spans in traced runs; nil otherwise.
	rec *trace.Recorder
	// traceOut is where the traced run writes its spans.
	traceOut string
	// shuffle perturbs only the order of the ingest schedules (the smoke
	// test sets it); contentKey receives the digest of the database
	// content the run ended with. Together they show that order does not
	// matter.
	shuffle    int64
	contentKey string
	// scratchDir holds the run's data directories; out, when set, also
	// receives the envelope.
	scratchDir, out string
}

// Set-up runs at least minSetups times, and a cheap one keeps repeating
// until setupBudget is spent or maxSetups is reached, so that the median
// behind setup_s rests on more than three samples.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// setUpAgain reports whether to run set-up once more after done
// repetitions that took spent in total. Smoke-test runs stop at
// minSetups.
func (c *config) setUpAgain(done int, spent time.Duration) bool {
	if done < minSetups {
		return true
	}
	return !c.tiny && done < maxSetups && spent < setupBudget
}

// scratch creates a fresh directory under the run's scratch root.
func (c *config) scratch(name string) (string, error) {
	dir := filepath.Join(c.root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch: %w", err)
	}
	return dir, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// metric is a value with its unit, as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is a metric of the envelope: the quiet quartile of the
// slices of the measured phase (see stats.go), with the slices' median
// and quartiles and the sample count.
type namedMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func named(s spread, unit string) namedMetric {
	return namedMetric{Value: s.val, Unit: unit, Median: s.med, Q1: s.q1, Q3: s.q3, N: s.n}
}

// in converts the metric to another unit, k of which make one of its own.
func (m namedMetric) in(unit string, k float64) namedMetric {
	return namedMetric{Value: m.Value * k, Unit: unit, Median: m.Median * k, Q1: m.Q1 * k, Q3: m.Q3 * k, N: m.N}
}

// once is a metric measured once in the run.
func once(v float64, unit string, n int) namedMetric {
	return namedMetric{Value: v, Unit: unit, Median: v, Q1: v, Q3: v, N: n}
}

// outcome is what a workload returns once its outputs checked out.
type outcome struct {
	attempted, failed int
	genSeconds        float64
	setup             []float64 // seconds, one per set-up repetition
	// named holds the workload's own end-to-end metrics plus the three
	// every workload reports (lat_p50_ms, ops_s, alt_p50_ms).
	named map[string]namedMetric
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

func newOutcome() *outcome {
	return &outcome{named: make(map[string]namedMetric), layers: make(map[string]float64)}
}

// bounded sets the three metrics every workload reports under the same
// names, the ones BENCHMARK.json bounds: the median latency of the
// workload's headline operation, the throughput of its bulk operation,
// and the median latency of its other path. README.md says what each of
// them is on each workload.
func (o *outcome) bounded(lat, ops, alt namedMetric) {
	o.named["lat_p50_ms"], o.named["ops_s"], o.named["alt_p50_ms"] = lat, ops, alt
}

// tolerated is how many of n operations may fail (a reply that never
// came, an immunized replay that deadlocked all the same) before the run
// itself counts as incorrect and prints nothing: one in a thousand, and
// two at the least, so that a short run is not failed by the one failure
// a long run would absorb. Failures within it are reported, as failed
// operations.
func tolerated(n int) int { return max(2, n/1000) }

// workloads maps a name to its implementation.
var workloads = map[string]func(*config) (*outcome, error){
	"protect":  runProtect,
	"ingest":   runIngest,
	"catchup":  runCatchup,
	"lockpath": runLockpath,
}

// env records the machine a result was measured on.
type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && e.Commit != "unknown" {
			e.Commit += "-dirty"
		}
	}
	return e
}

// envelope is the full result of one run.
type envelope struct {
	Env      env                    `json:"env"`
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Traced   bool                   `json:"traced"`
	Metrics  map[string]namedMetric `json:"metrics"`
	Layers   map[string]metric      `json:"layers,omitempty"`
}

// result is the object the driver reads from the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report turns a checked outcome into the envelope and the driver's
// result. Untraced runs report the end-to-end metrics; traced runs
// report every per-layer metric, zero for layers the workload never
// entered.
func report(c *config, o *outcome) (envelope, result) {
	env := envelope{Env: readEnv(), Workload: c.workload, Seed: c.seed,
		Seconds: c.duration.Seconds(), Traced: c.trace, Metrics: o.named}
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	failFrac := 0.0
	if o.attempted > 0 {
		failFrac = float64(o.failed) / float64(o.attempted)
	}
	o.named["fail_frac"] = once(failFrac, "ratio", o.attempted)
	o.named["gen_s"] = once(o.genSeconds, "s", 1)
	if c.trace {
		env.Layers = make(map[string]metric)
		for _, m := range layerMetrics {
			v := metric{Value: o.layers[m.name], Unit: m.unit}
			env.Layers[m.name] = v
			res.Metrics[m.name] = v
		}
		return env, res
	}
	if len(o.setup) > 0 {
		s := append([]float64(nil), o.setup...)
		sort.Float64s(s)
		med := quantile(s, 0.5)
		o.named["setup_s"] = namedMetric{Value: med, Unit: "s", Median: med, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	}
	o.named["peak_rss_mb"] = once(peakRSSMB(), "MB", 1)
	for _, name := range endToEnd {
		m := o.named[name]
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return env, res
}

// endToEnd lists the metrics of BENCHMARK.json's end_to_end section, the
// ones every workload reports and the driver bounds.
var endToEnd = []string{"setup_s", "lat_p50_ms", "ops_s", "alt_p50_ms", "peak_rss_mb"}

// parse reads one invocation's flags.
func parse(args []string) (*config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "", "protect, ingest, catchup or lockpath")
	fs.Int64Var(&c.seed, "seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&c.out, "out", "", "also write the envelope to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if *seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	c.duration = time.Duration(*seconds * float64(time.Second))
	c.trace = *traceFlag != 0
	c.scratchDir = filepath.Join(".bench_build", "tmp")
	c.traceOut = filepath.Join("benchmark", "out", "trace-"+c.workload+".json")
	return c, nil
}

// execute runs the workload, checks it, and returns what to print.
func execute(c *config) (envelope, result, error) {
	var env envelope
	var res result
	if c.trace {
		c.rec = trace.New()
	}
	if err := os.MkdirAll(c.scratchDir, 0o755); err != nil {
		return env, res, err
	}
	root, err := os.MkdirTemp(c.scratchDir, c.workload+"-")
	if err != nil {
		return env, res, err
	}
	c.root = root
	defer os.RemoveAll(root)

	o, err := workloads[c.workload](c)
	if err != nil {
		return env, res, err
	}
	if c.trace {
		if err := c.rec.WriteFile(c.traceOut); err != nil {
			return env, res, err
		}
	}
	env, res = report(c, o)
	return env, res, nil
}

// run is one invocation: on success it prints the envelope and then, as
// the last line, the driver's result; on any failure — a correctness
// violation included — it prints neither.
func run(c *config, stdout io.Writer) error {
	env, res, err := execute(c)
	if err != nil {
		return err
	}
	full, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if c.out != "" {
		if err := os.WriteFile(c.out, append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return err
}

func main() {
	c, err := parse(os.Args[1:])
	if err == nil {
		err = run(c, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
