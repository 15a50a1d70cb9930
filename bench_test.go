// Benchmarks regenerating the paper's evaluation (§IV): one benchmark per
// table and figure, at a scale that keeps `go test -bench=.` affordable.
// The communix-bench binary runs the same experiments (add -full for
// paper-scale parameters) and prints the full row/series text.
package communix_test

import (
	"fmt"
	"testing"

	"communix/internal/bench"
	"communix/internal/bytecode"
	"communix/internal/workload"
)

// BenchmarkFig2ServerThroughput measures the Communix server's direct
// request processing under k simultaneous "ADD(sig),GET(0)" sequences
// (paper Figure 2: scales to 30k threads, peak ≈9000 req/s on 2011
// hardware).
func BenchmarkFig2ServerThroughput(b *testing.B) {
	for _, k := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("threads=%d", k), func(b *testing.B) {
			var reqPerSec float64
			for i := 0; i < b.N; i++ {
				points, err := bench.Fig2(bench.Fig2Config{ThreadCounts: []int{k}})
				if err != nil {
					b.Fatal(err)
				}
				reqPerSec = points[0].ReqPerSec
			}
			b.ReportMetric(reqPerSec, "req/s")
		})
	}
}

// BenchmarkFig3Distribution measures end-to-end signature distribution
// over TCP (paper Figure 3: scales to ~30 client threads, then the
// O(N²) GET(0) reply volume saturates the network).
func BenchmarkFig3Distribution(b *testing.B) {
	for _, clients := range []int{5, 15, 30} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var perClient float64
			for i := 0; i < b.N; i++ {
				points, err := bench.Fig3(bench.Fig3Config{
					ClientCounts: []int{clients}, SeqPerClient: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				perClient = points[0].PerClientReqPerSec
			}
			b.ReportMetric(perClient, "req/s/client")
		})
	}
}

// BenchmarkFig4AgentStartup measures application startup+shutdown with
// the agent validating n new repository signatures (paper Figure 4: 2-3s
// delay at 1000 signatures, 11-16% slowdown).
func BenchmarkFig4AgentStartup(b *testing.B) {
	app, err := bytecode.Generate(bytecode.ProfileJBoss.ScaledDown(20))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range workload.StartupModes() {
		for _, n := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/sigs=%d", mode, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := workload.RunStartup(workload.StartupConfig{
						App: app, Mode: mode, NewSigs: n, Seed: 1,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable1NestingAnalysis measures the §III-C3 static nesting
// analysis over the Table I applications (paper: 50-122s under Soot for
// 432-844 analyzed sites).
func BenchmarkTable1NestingAnalysis(b *testing.B) {
	for _, p := range bytecode.TableIProfiles() {
		app, err := bytecode.Generate(p.ScaledDown(10))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			var nested int
			for i := 0; i < b.N; i++ {
				nested = len(bytecode.Analyze(app).NestedSiteKeys())
			}
			b.ReportMetric(float64(nested), "nested-sites")
		})
	}
}

// BenchmarkTable2DoSOverhead measures the worst-case slowdown under a
// signature DoS attack (paper Table II: 8-40% with depth-5 critical-path
// signatures; >100% for depth-1, which validation rejects).
func BenchmarkTable2DoSOverhead(b *testing.B) {
	bench2 := func(b *testing.B, mode workload.AttackMode, withSigs bool) {
		profile := bytecode.ProfileJBoss.ScaledDown(5)
		profile.PathVariants = 3
		profile.HotFraction = 0.5
		app, err := bytecode.Generate(profile)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := workload.NewLockSim(app, workload.SimConfig{
			Workers: 4, Iterations: 3000, CSWork: 4000, OutWork: 1500,
			HotOnly: true, NestedOnly: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		history := bench.HistoryOf(nil)
		if withSigs {
			history = bench.HistoryOf(workload.MaliciousSignatures(app, 20, mode, 1))
		}
		b.ResetTimer()
		var yields uint64
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(history)
			if err != nil {
				b.Fatal(err)
			}
			yields = res.Stats.Yields
		}
		b.ReportMetric(float64(yields), "yields")
	}
	b.Run("baseline", func(b *testing.B) { bench2(b, workload.AttackCriticalPath, false) })
	b.Run("critical-path-depth5", func(b *testing.B) { bench2(b, workload.AttackCriticalPath, true) })
	b.Run("off-path", func(b *testing.B) { bench2(b, workload.AttackOffPath, true) })
	b.Run("depth1", func(b *testing.B) { bench2(b, workload.AttackDepth1, true) })
}

// BenchmarkProtectionTime runs the §IV-C fleet simulation (time to full
// protection scales as 1/Nu with Communix).
func BenchmarkProtectionTime(b *testing.B) {
	for _, users := range []int{1, 100} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				rows := bench.Protection(bench.ProtectionConfig{
					UserCounts: []int{users}, Trials: 100,
				})
				speedup = rows[0].Speedup
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkAgentValidationRate isolates the client-side validation +
// generalization rate (paper §IV-A: the agent analyzes 1000 new
// signatures in 2-3 seconds).
func BenchmarkAgentValidationRate(b *testing.B) {
	app, err := bytecode.Generate(bytecode.ProfileJBoss.ScaledDown(20))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workload.RunStartup(workload.StartupConfig{
			App: app, Mode: workload.StartupAgent, NewSigs: 1000,
			BaseWorkPerKLOC: 1, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Inspected != 1000 {
			b.Fatalf("inspected %d", res.Report.Inspected)
		}
	}
}
