package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec mirrors the parts of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig parses the command line the driver would give and shrinks
// the run to smoke-test size.
func tinyConfig(t *testing.T, args ...string) *config {
	t.Helper()
	c, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	c.tiny = true
	return c
}

// smoke runs one workload at smoke-test size through the same entry
// point as the command line and returns the envelope and the driver's
// result line.
func smoke(t *testing.T, workload, trace string) (envelope, result) {
	t.Helper()
	dir := t.TempDir()
	c := tinyConfig(t, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
	c.scratchDir, c.traceOut = dir, filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run(c, &out); err != nil {
		t.Fatalf("%s (trace %s): %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: printed %d lines, want the envelope and the result", workload, len(lines))
	}
	var env envelope
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	// A failed operation within the gates' tolerance (an immunized replay
	// that deadlocked all the same) is reported, and does not fail the run.
	if !res.Correct || res.Attempted < 1 || res.Failed > tolerated(res.Attempted) {
		t.Fatalf("%s: result %+v", workload, res)
	}
	if left, _ := os.ReadDir(dir); trace == "0" && len(left) != 0 {
		t.Errorf("%s left %d entries in its scratch directory", workload, len(left))
	}
	return env, res
}

// TestWorkloadsEndToEnd runs all four workloads untraced, correctness
// gates on, and checks that each prints every end-to-end metric of
// BENCHMARK.json with its unit, plus its own named metrics.
func TestWorkloadsEndToEnd(t *testing.T) {
	sp := readSpec(t)
	own := map[string][]string{
		"protect":  {"ttp_p50_ms", "ttp_p95_ms", "detect_p50_ms", "replay_ops_s"},
		"ingest":   {"add_ops_s", "add_p50_ms", "add_p95_ms", "add_single_p50_ms", "add_saturated_p50_ms"},
		"catchup":  {"sync_sigs_s", "validate_sigs_s", "catchup_p50_s"},
		"lockpath": {"lock_ns_op", "lock_matched_ns_op", "chan_ns_op", "app_ops_s"},
	}
	if len(sp.Workloads) != len(own) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(own))
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			env, res := smoke(t, w.Name, "0")
			if len(res.Metrics) != len(sp.EndToEnd) {
				t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(sp.EndToEnd))
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range append(own[w.Name], "fail_frac", "setup_s", "peak_rss_mb") {
				if _, ok := env.Metrics[name]; !ok {
					t.Errorf("envelope lacks %s", name)
				}
			}
			for other, names := range own {
				if other == w.Name {
					continue
				}
				for _, name := range names {
					if _, ok := env.Metrics[name]; ok {
						t.Errorf("%s printed %s, a metric of %s", w.Name, name, other)
					}
				}
			}
			if env.Env.Cores < 1 || env.Env.GOMAXPROCS < 1 || env.Env.Go == "" || env.Env.Commit == "" {
				t.Errorf("env %+v does not record the machine", env.Env)
			}
			if env.Workload != w.Name || env.Seed != 3 || env.Traced {
				t.Errorf("envelope header %q seed %d traced %v", env.Workload, env.Seed, env.Traced)
			}
		})
	}
}

// TestWorkloadsTraced runs all four workloads traced and checks that
// each prints every per-layer metric of BENCHMARK.json, that the layers
// a workload bypasses stay at zero, and that the spans are written.
func TestWorkloadsTraced(t *testing.T) {
	sp := readSpec(t)
	if len(sp.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark defines %d", len(sp.PerLayer), len(layerMetrics))
	}
	for i, m := range sp.PerLayer {
		if layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	// Prefixes of the layers each workload must not enter, and a few
	// metrics it must fill.
	silent := map[string][]string{
		"protect":  {"store.", "ids.", "stacktrace.", "commdlk."},
		"ingest":   {"stage.", "stacktrace.", "commdlk.", "dimmunix.", "agent.", "repo.", "plugin.", "client.", "server.quorum", "server.follower"},
		"catchup":  {"stage.", "stacktrace.", "commdlk.", "dimmunix.", "plugin.", "ids.", "server.quorum", "server.follower"},
		"lockpath": {"stage.", "sig.", "ids.", "wire.", "store.", "server.", "client.", "plugin.", "repo.", "agent."},
	}
	filled := map[string][]string{
		"protect":  {"stage.detect_us", "stage.plugin_us", "stage.commit_us", "stage.fanout_us", "stage.land_us", "stage.validate_us", "stage.arm_us", "stage.coverage", "wire.ping_rtt_us", "wire.bytes_per_add", "client.upload_us", "plugin.handle_us"},
		"ingest":   {"sig.decode_ns", "sig.id_ns", "sig.adjacent_ns", "ids.verify_ns", "wire.encode_add_ns", "wire.bytes_per_add", "store.add_us", "store.addbatch_us_per_sig", "store.wal.bytes_per_add", "store.open_recover_s", "server.process_add_us", "gen.late_p95_ms"},
		"catchup":  {"sig.merge_ns", "wire.decode_push_ns_per_sig", "store.getpage_us_per_sig", "store.open_recover_s", "server.process_get_us_per_sig", "client.synconce_us_per_sig", "repo.append_us_per_sig", "repo.newsince_us_per_sig", "agent.validate_us_per_sig", "agent.accept_frac", "agent.merge_frac"},
		"lockpath": {"stacktrace.capture_cached_ns", "stacktrace.capture_adaptive_ns", "stacktrace.capture_uncached_ns", "dimmunix.acquire_unmatched_ns", "dimmunix.acquire_matched_ns", "dimmunix.history_add_us", "dimmunix.detect_us", "commdlk.send_recv_ns", "commdlk.select_ns", "commdlk.raw_ratio", "commdlk.detect_us"},
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			env, res := smoke(t, w.Name, "1")
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(sp.PerLayer))
			}
			for _, m := range sp.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				for _, prefix := range silent[w.Name] {
					if strings.HasPrefix(m.Name, prefix) && got.Value != 0 {
						t.Errorf("%s = %v on %s, a layer the workload bypasses", m.Name, got.Value, w.Name)
					}
				}
			}
			for _, name := range filled[w.Name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a measurement", name, res.Metrics[name].Value)
				}
			}
			if !env.Traced || len(env.Layers) != len(sp.PerLayer) {
				t.Errorf("envelope: traced %v with %d layers", env.Traced, len(env.Layers))
			}
		})
	}
}

// TestIngestOrderDoesNotMatter: two shuffles of the same uploads leave
// the database with the same content — ADD is a commutative set-insert.
func TestIngestOrderDoesNotMatter(t *testing.T) {
	keys := make(map[string]bool)
	for _, shuffle := range []int64{1, 2} {
		c := tinyConfig(t, "-workload", "ingest", "-seed", "3", "-seconds", "30")
		c.scratchDir, c.shuffle = t.TempDir(), shuffle
		if _, _, err := execute(c); err != nil {
			t.Fatal(err)
		}
		keys[c.contentKey] = true
	}
	if len(keys) != 1 {
		t.Errorf("two shuffles of the same uploads left %d different databases", len(keys))
	}
}

// TestFailureExitsWithoutMetrics: a run that cannot complete prints
// nothing — the driver must never read numbers from a run that failed.
func TestFailureExitsWithoutMetrics(t *testing.T) {
	if _, err := parse([]string{"-workload", "nope"}); err == nil {
		t.Error("unknown workload was accepted")
	}
	if _, err := parse([]string{"-workload", "lockpath", "-seconds", "0"}); err == nil {
		t.Error("zero-length run was accepted")
	}
	// A scratch directory that cannot be created fails the run before it
	// measures anything.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := tinyConfig(t, "-workload", "lockpath")
	c.scratchDir = filepath.Join(file, "sub")
	var out bytes.Buffer
	if err := run(c, &out); err == nil {
		t.Error("a run without a scratch directory succeeded")
	}
	if out.Len() != 0 {
		t.Errorf("failed run printed %q", out.String())
	}
}
