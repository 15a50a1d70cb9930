// Command communix-bench regenerates every table and figure from the
// paper's evaluation (§IV).
//
// Usage:
//
//	communix-bench -experiment all            # everything, quick scale
//	communix-bench -experiment fig2 -full     # Figure 2 at paper scale
//	communix-bench -experiment table2         # Table II
//
// Experiments: fig2, fig3, fig4, table1, table2, protection, all. -full
// runs paper-scale parameters (Figure 2 spawns up to 100,000 goroutines
// and Table I generates 600-kLOC-scale applications; expect minutes).
// The default quick scale preserves every qualitative shape.
//
// The upload experiment is not part of the paper: it is the write load
// of the failover smoke tests, a burst of uploads through the
// distribution client (internal/client: its rotation past dead or busy
// members, NotPrimary redirects and busy retries), each retried until a
// cell member acknowledges it; it exits non-zero if any upload never
// lands.
//
// The system's performance benchmark is benchmark/run.sh, not this
// tool.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"communix/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	experiment := flag.String("experiment", "all", "fig2|fig3|fig4|table1|table2|protection|upload|all")
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	uploadAddrs := flag.String("upload-addrs", "", "upload (CI chaos smoke): comma-separated cell member addresses")
	uploadToken := flag.String("upload-token", "", "upload: encrypted user token (server -mint output)")
	uploadN := flag.Int("upload-n", 0, "upload: distinct signatures to upload (0 = default 20)")
	uploadSeed := flag.Int("upload-seed", 0, "upload: deterministic signature stream seed (0 = default 1)")
	uploadTimeout := flag.Int("upload-timeout", 0, "upload: deadline in seconds, retries included (0 = default 60)")
	flag.Parse()

	// Upload mode: this process is the chaos smoke's write load; it
	// retries every upload until a cell member acknowledges it and exits
	// nonzero if any upload never lands.
	if *experiment == "upload" {
		var addrs []string
		for _, a := range strings.Split(*uploadAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		_, err := bench.UploadBurst(bench.UploadBurstConfig{
			Addrs:      addrs,
			Token:      *uploadToken,
			N:          *uploadN,
			Seed:       *uploadSeed,
			TimeoutSec: *uploadTimeout,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-bench: upload: %v\n", err)
			return 1
		}
		return 0
	}

	// Quick-scale divisors chosen so each experiment finishes in seconds
	// while keeping every curve's shape.
	fig2Scale, fig3Scale, fig4Scale, table1Scale := 20, 4, 10, 4
	if *full {
		fig2Scale, fig3Scale, fig4Scale, table1Scale = 1, 1, 1, 1
	}

	out := os.Stdout
	ran := false
	fail := func(name string, err error) int {
		fmt.Fprintf(os.Stderr, "communix-bench: %s: %v\n", name, err)
		return 1
	}
	if *experiment == "fig2" || *experiment == "all" {
		ran = true
		points, err := bench.Fig2(bench.Fig2Config{Scale: fig2Scale})
		if err != nil {
			return fail("fig2", err)
		}
		bench.WriteFig2(out, points)
		fmt.Fprintln(out)
	}
	if *experiment == "fig3" || *experiment == "all" {
		ran = true
		points, err := bench.Fig3(bench.Fig3Config{Scale: fig3Scale})
		if err != nil {
			return fail("fig3", err)
		}
		bench.WriteFig3(out, points)
		fmt.Fprintln(out)
	}
	if *experiment == "fig4" || *experiment == "all" {
		ran = true
		points, err := bench.Fig4(bench.Fig4Config{Scale: fig4Scale})
		if err != nil {
			return fail("fig4", err)
		}
		bench.WriteFig4(out, points)
		fmt.Fprintln(out)
	}
	if *experiment == "table1" || *experiment == "all" {
		ran = true
		rows, err := bench.Table1(bench.Table1Config{Scale: table1Scale})
		if err != nil {
			return fail("table1", err)
		}
		bench.WriteTable1(out, rows)
		fmt.Fprintln(out)
	}
	if *experiment == "table2" || *experiment == "all" {
		ran = true
		rows, err := bench.Table2(bench.Table2Config{})
		if err != nil {
			return fail("table2", err)
		}
		bench.WriteTable2(out, rows)
		fmt.Fprintln(out)
	}
	if *experiment == "protection" || *experiment == "all" {
		ran = true
		bench.WriteProtection(out, bench.Protection(bench.ProtectionConfig{}))
		fmt.Fprintln(out)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "communix-bench: unknown experiment %q\n", *experiment)
		return 2
	}
	return 0
}
