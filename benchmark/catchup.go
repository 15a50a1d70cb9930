package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"communix"
	"communix/benchmark/gen"
	"communix/internal/wire"
)

// catchup measures a new machine's bootstrap: a server that recovered a
// populated database, and fresh machines that download all of it — one
// by paging GETs, one over the push plane — then validate and generalize
// it into an empty history. Closed loop, one bootstrap after another.

type catchupSizes struct {
	nested int
	sigs   int // signatures in the pre-built database
}

func (c *config) catchupSizes() catchupSizes {
	if c.tiny {
		return catchupSizes{nested: 24, sigs: 300}
	}
	// Eight pages of the default GetBatch (256).
	return catchupSizes{nested: 120, sigs: 2048}
}

// buildDatabase commits the plan's signatures to a fresh data directory,
// one user each, through the server's own ADD path, and closes it.
func buildDatabase(dir string, p *gen.CatchupPlan) error {
	srv, err := communix.NewServer(communix.ServerConfig{Key: gen.Key, DataDir: dir})
	if err != nil {
		return err
	}
	defer srv.Close()
	auth, err := communix.NewAuthority(gen.Key)
	if err != nil {
		return err
	}
	for i, raw := range p.Sigs {
		_, token := auth.Issue()
		resp := srv.Process(wire.Request{Type: wire.MsgAdd, Token: token, Sig: raw})
		if resp.Status != wire.StatusOK || resp.Detail != "" {
			return fmt.Errorf("database signature %d: %s: %s", i, resp.Status, resp.Detail)
		}
	}
	return nil
}

// bootstrap is one repetition's timings.
type bootstrap struct {
	at                    time.Duration // completion, from the phase start
	sync, validate, whole time.Duration
	report                communix.AgentReport
	polled, pushed, hist  int
}

// bootstrapOnce brings two fresh machines up against the server: the
// poller downloads by paging GETs and then runs the agent; the
// subscriber receives the backlog over the push plane. Both start at
// once; validation starts when both repositories are full.
func bootstrapOnce(addr string, app *gen.App, n int) (bootstrap, error) {
	var b bootstrap
	start := time.Now()
	var pushed, polled atomic.Int64
	full := make(chan struct{}, 2)
	count := func(total *atomic.Int64) func(int) {
		return func(added int) {
			if total.Add(int64(added)) == int64(n) {
				full <- struct{}{}
			}
		}
	}
	sub, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr, Subscribe: true, OnSignatures: count(&pushed),
	})
	if err != nil {
		return b, err
	}
	defer sub.Close()
	// The poller's background loop pages the whole database in its first
	// poll, as any new node's does.
	poller, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr, App: app.View, AppKey: "bench@new", OnSignatures: count(&polled),
	})
	if err != nil {
		return b, err
	}
	defer poller.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-full:
		case <-time.After(roundTimeout):
			return b, fmt.Errorf("repositories hold %d (poll) and %d (push) of %d signatures", polled.Load(), pushed.Load(), n)
		}
	}
	b.polled, b.pushed = int(polled.Load()), int(pushed.Load())
	b.sync = time.Since(start)
	vStart := time.Now()
	if b.report, err = poller.ValidateRepository(); err != nil {
		return b, err
	}
	b.validate = time.Since(vStart)
	b.whole = time.Since(start)
	b.hist = poller.History().Len()
	return b, nil
}

// check is the catchup correctness gate for one bootstrap.
func (b bootstrap) check(p *gen.CatchupPlan) error {
	n := len(p.Sigs)
	if b.polled != n || b.pushed != n {
		return fmt.Errorf("repositories hold %d (poll) and %d (push) signatures, database has %d", b.polled, b.pushed, n)
	}
	r := b.report
	if r.Inspected != n || r.Accepted != p.Accepted || r.RejectedHash != p.RejectedHash ||
		r.RejectedDepth != p.RejectedDepth || r.PendingNesting != 0 {
		return fmt.Errorf("agent report %+v differs from the generator's %d accepted, %d wrong hash, %d too shallow",
			r, p.Accepted, p.RejectedHash, p.RejectedDepth)
	}
	if b.hist == 0 || b.hist > p.Accepted {
		return fmt.Errorf("history holds %d signatures after accepting %d", b.hist, p.Accepted)
	}
	return nil
}

func runCatchup(c *config) (*outcome, error) {
	sz := c.catchupSizes()
	genStart := time.Now()
	app, err := gen.NewApp(c.seed, sz.nested)
	if err != nil {
		return nil, err
	}
	plan, err := app.Catchup(c.seed, sz.sigs)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(c.root, "db")
	if err := buildDatabase(dir, plan); err != nil {
		return nil, fmt.Errorf("catchup: building the database: %w", err)
	}
	out := newOutcome()
	out.genSeconds = time.Since(genStart).Seconds()

	// Set-up is what an operator waits for after a restart: recovery of
	// the data directory, then listening.
	var srv *communix.Server
	var addr string
	var served chan error
	stop := func() {
		if srv != nil {
			srv.Close()
			<-served
		}
	}
	for rep, spent := 0, time.Duration(0); c.setUpAgain(rep, spent); rep++ {
		stop()
		t := time.Now()
		if srv, addr, served, err = startSolo(dir); err != nil {
			return nil, fmt.Errorf("catchup set-up: %w", err)
		}
		if got := srv.Store().Len(); got != sz.sigs {
			stop()
			return nil, fmt.Errorf("catchup set-up: recovered %d of %d signatures", got, sz.sigs)
		}
		spent += time.Since(t)
		out.setup = append(out.setup, time.Since(t).Seconds())
	}
	defer stop()

	if c.trace {
		return catchupLayers(c, addr, app, plan, dir, out)
	}
	runtime.GC()
	boots, err := runBootstraps(plan, c.duration, func(int) (bootstrap, error) {
		return bootstrapOnce(addr, app, sz.sigs)
	})
	if err != nil {
		return nil, err
	}
	catchupMetrics(out, boots, sz.sigs, c.duration)
	return out, nil
}

// runBootstraps repeats once for the duration, checking each bootstrap
// against the plan.
func runBootstraps(plan *gen.CatchupPlan, d time.Duration, once func(round int) (bootstrap, error)) ([]bootstrap, error) {
	var boots []bootstrap
	begin := time.Now()
	for time.Since(begin) < d {
		b, err := once(len(boots))
		if err != nil {
			return nil, fmt.Errorf("catchup: bootstrap %d: %w", len(boots), err)
		}
		if err := b.check(plan); err != nil {
			return nil, fmt.Errorf("catchup: correctness: bootstrap %d: %w", len(boots), err)
		}
		b.at = time.Since(begin)
		boots = append(boots, b)
	}
	if len(boots) == 0 {
		return nil, errors.New("catchup: no bootstrap completed")
	}
	return boots, nil
}

// catchupMetrics derives the workload's metrics from its bootstraps.
func catchupMetrics(out *outcome, boots []bootstrap, n int, d time.Duration) {
	pick := func(f func(bootstrap) time.Duration) []sample {
		s := make([]sample, len(boots))
		for i, b := range boots {
			s[i] = sample{at: b.at, lat: f(b)}
		}
		return s
	}
	whole := pick(func(b bootstrap) time.Duration { return b.whole })
	phase := spanOf(whole, d)
	out.attempted = len(boots)
	perSecond := func(l spread, k float64) namedMetric {
		// signatures per second = k·n / duration
		sigs := k * float64(n)
		return namedMetric{Value: sigs / l.val, Unit: "1/s", Median: sigs / l.med, Q1: sigs / l.q3, Q3: sigs / l.q1, N: l.n}
	}
	sync := latency(pick(func(b bootstrap) time.Duration { return b.sync }), phase, 0.5, time.Second)
	validate := latency(pick(func(b bootstrap) time.Duration { return b.validate }), phase, 0.5, time.Second)
	out.named["sync_sigs_s"] = perSecond(sync, 2)
	out.named["validate_sigs_s"] = perSecond(validate, 1)
	out.named["catchup_p50_s"] = named(latency(whole, phase, 0.5, time.Second), "s")
	out.named["catchup_p95_s"] = named(latency(whole, phase, 0.95, time.Second), "s")
	out.bounded(out.named["catchup_p50_s"].in("ms", 1e3), out.named["sync_sigs_s"], named(validate, "s").in("ms", 1e3))
}
