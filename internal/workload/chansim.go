package workload

import (
	"fmt"
	"sync"
	"time"

	"communix/internal/commdlk"
	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// Channel workload scenarios.
const (
	// ChanScenarioSemaphore is the channel transposition of the classic
	// lock-ordering deadlock: two capacity-1 channels used as
	// semaphores, filled in opposite order by two goroutines. A warmup
	// lap seeds the detector's usage model; the trap lap interleaves
	// the fills into a send/send cycle.
	ChanScenarioSemaphore = "semaphore"
	// ChanScenarioSelect is the same cycle with the fills issued
	// through single-case selects, producing chan-select signatures.
	ChanScenarioSelect = "select"
	// ChanScenarioRing is a deadlock-free producer/consumer ring with a
	// select-storm forwarder — the throughput and false-positive
	// workload.
	ChanScenarioRing = "ring"
)

// ChanSimConfig parameterizes a channel workload run.
type ChanSimConfig struct {
	// Scenario selects the workload shape (ChanScenario*).
	Scenario string
	// GraphDisabled runs the differential reference arm: raw native
	// channel ops, no instrumentation. Only the ring scenario supports
	// it — the cycle scenarios would genuinely hang.
	GraphDisabled bool
	// Producers and Items size the ring scenario (defaults 4 and 200
	// items per producer).
	Producers int
	Items     int
	// Timeout bounds every internal sequencing wait (default 10s).
	Timeout time.Duration
}

// ChanSimResult is one channel workload run's outcome.
type ChanSimResult struct {
	Elapsed time.Duration
	Stats   commdlk.Stats
	// Detected holds the signatures of the deadlocks detected during
	// the run, in detection order.
	Detected []*sig.Signature
	// Denied counts channel ops denied with ErrDeadlock (RecoverBreak).
	Denied int
}

// ChanSim replays communication-deadlock scenarios against a commdlk
// runtime — the channel counterpart of LockSim.
type ChanSim struct {
	cfg ChanSimConfig
}

// NewChanSim validates the configuration.
func NewChanSim(cfg ChanSimConfig) (*ChanSim, error) {
	switch cfg.Scenario {
	case ChanScenarioSemaphore, ChanScenarioSelect:
		if cfg.GraphDisabled {
			return nil, fmt.Errorf("workload: scenario %q deadlocks for real with the graph disabled", cfg.Scenario)
		}
	case ChanScenarioRing:
	default:
		return nil, fmt.Errorf("workload: unknown channel scenario %q", cfg.Scenario)
	}
	if cfg.Producers <= 0 {
		cfg.Producers = 4
	}
	if cfg.Items <= 0 {
		cfg.Items = 200
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	return &ChanSim{cfg: cfg}, nil
}

// Run executes the workload against a fresh channel runtime, built on a
// fresh dimmunix runtime, using the given history (nil for an empty
// one). With an empty history the cycle scenarios deterministically
// reproduce their deadlock (detected, fingerprinted, and broken via
// RecoverBreak); with the detected signature already in the history the
// same schedule completes deadlock-free by parking the threatening fill.
func (s *ChanSim) Run(history *dimmunix.History) (ChanSimResult, error) {
	if history == nil {
		history = dimmunix.NewHistory()
	}
	var res ChanSimResult
	var mu sync.Mutex
	host := dimmunix.NewRuntime(dimmunix.Config{
		History: history,
		Policy:  dimmunix.RecoverBreak,
		OnDeadlock: func(d dimmunix.Deadlock) {
			mu.Lock()
			res.Detected = append(res.Detected, d.Signature)
			mu.Unlock()
		},
	})
	defer host.Close()
	rt := commdlk.NewRuntime(host, commdlk.Config{GraphDisabled: s.cfg.GraphDisabled})
	defer rt.Close()

	start := time.Now()
	var err error
	switch s.cfg.Scenario {
	case ChanScenarioSemaphore:
		err = s.runSemaphore(rt, &res)
	case ChanScenarioSelect:
		err = s.runSelect(rt, &res)
	case ChanScenarioRing:
		err = s.runRing(rt, &res)
	}
	res.Elapsed = time.Since(start)
	res.Stats = rt.Stats()
	if err != nil {
		return ChanSimResult{}, err
	}
	return res, nil
}

// waitFor polls cond until true or the configured timeout elapses.
func (s *ChanSim) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(s.cfg.Timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("workload: timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// chanOps abstracts how a scenario issues its fills, so the semaphore
// and select variants share one trap schedule (differing only in the
// construct — and hence the frame kind — of the engagement sites).
type chanOps struct {
	fillA1 func() error // g1's fill of A (its outer/engagement site)
	fillB1 func() error // g1's cross fill of B
	fillB2 func() error // g2's fill of B (its outer/engagement site)
	fillA2 func() error // g2's cross fill of A
	a, b   *commdlk.Chan[int]
}

// runTrap drives the two-goroutine cycle: a fully sequenced warmup lap
// per goroutine (deadlock-free, seeds usage), then the interleaved trap
// lap — g1 fills A; g2 fills B; g1 attempts B; g2 attempts A. The gates
// are phrased over runtime state so the identical schedule drives both
// the detection run (g2's cross fill is denied) and the avoidance run
// (g2's first fill parks until g1's engagements drain).
func (s *ChanSim) runTrap(rt *commdlk.Runtime, ops chanOps, res *ChanSimResult) error {
	g1cycle := func(mid func() error) error {
		if err := ops.fillA1(); err != nil {
			return err
		}
		if mid != nil {
			if err := mid(); err != nil {
				return err
			}
		}
		if err := ops.fillB1(); err != nil {
			ops.a.TryRecv()
			return err
		}
		if _, _, err := ops.b.Recv(); err != nil {
			return err
		}
		_, _, err := ops.a.Recv()
		return err
	}
	g2cycle := func(pre, mid func() error) error {
		if pre != nil {
			if err := pre(); err != nil {
				return err
			}
		}
		if err := ops.fillB2(); err != nil {
			return err
		}
		if mid != nil {
			if err := mid(); err != nil {
				return err
			}
		}
		if err := ops.fillA2(); err != nil {
			ops.b.TryRecv()
			return err
		}
		if _, _, err := ops.a.Recv(); err != nil {
			return err
		}
		_, _, err := ops.b.Recv()
		return err
	}

	var (
		wg     sync.WaitGroup
		g1warm = make(chan struct{})
		g2warm = make(chan struct{})
		e1, e2 error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := g1cycle(nil); err != nil {
			e1 = err
			close(g1warm)
			return
		}
		close(g1warm)
		<-g2warm
		e1 = g1cycle(func() error {
			// Cross-fill once g2 committed to B: deposited it, or
			// parked at it (the avoidance run).
			return s.waitFor("g2 engaging B", func() bool {
				return ops.b.Len() == 1 || rt.Waiting() >= 1
			})
		})
	}()
	go func() {
		defer wg.Done()
		<-g1warm
		if err := g2cycle(nil, nil); err != nil {
			e2 = err
			close(g2warm)
			return
		}
		close(g2warm)
		e2 = g2cycle(func() error {
			// First fill waits for g1's fill of A, keeping the deposit
			// order deterministic across laps.
			return s.waitFor("g1 filling A", func() bool { return ops.a.Len() == 1 })
		}, func() error {
			// Cross-fill once g1 is waiting on B (detection run) or has
			// already drained A after we parked (avoidance run).
			return s.waitFor("g1 waiting on B", func() bool {
				return rt.Waiting() >= 1 || ops.a.Len() == 0
			})
		})
	}()
	wg.Wait()

	for _, err := range []error{e1, e2} {
		switch {
		case err == nil:
		case err == commdlk.ErrDeadlock:
			res.Denied++
		default:
			return err
		}
	}
	return nil
}

func (s *ChanSim) runSemaphore(rt *commdlk.Runtime, res *ChanSimResult) error {
	a := commdlk.NewChan[int](rt, "sem-a", 1)
	b := commdlk.NewChan[int](rt, "sem-b", 1)
	return s.runTrap(rt, chanOps{
		fillA1: func() error { return a.Send(1) },
		fillB1: func() error { return b.Send(1) },
		fillB2: func() error { return b.Send(2) },
		fillA2: func() error { return a.Send(2) },
		a:      a, b: b,
	}, res)
}

func (s *ChanSim) runSelect(rt *commdlk.Runtime, res *ChanSimResult) error {
	a := commdlk.NewChan[int](rt, "selsem-a", 1)
	b := commdlk.NewChan[int](rt, "selsem-b", 1)
	sel := func(c commdlk.SelectCase) error {
		_, err := commdlk.Select(c)
		return err
	}
	return s.runTrap(rt, chanOps{
		fillA1: func() error { return sel(commdlk.SendCase(a, 1)) },
		fillB1: func() error { return sel(commdlk.SendCase(b, 1)) },
		fillB2: func() error { return sel(commdlk.SendCase(b, 2)) },
		fillA2: func() error { return sel(commdlk.SendCase(a, 2)) },
		a:      a, b: b,
	}, res)
}

// runRing is the deadlock-free throughput workload: Producers feed a
// buffered ring, a forwarder pumps items through a select storm into an
// output ring, a consumer drains. Any detection here is a false
// positive and fails the run.
func (s *ChanSim) runRing(rt *commdlk.Runtime, res *ChanSimResult) error {
	in := commdlk.NewChan[int](rt, "ring-in", 8)
	out := commdlk.NewChan[int](rt, "ring-out", 8)
	total := s.cfg.Producers * s.cfg.Items

	errs := make(chan error, s.cfg.Producers+2)
	var wg sync.WaitGroup
	for p := 0; p < s.cfg.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < s.cfg.Items; i++ {
				if err := in.Send(p*s.cfg.Items + i); err != nil {
					errs <- fmt.Errorf("producer %d: %w", p, err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < total; n++ {
			var v int
			if _, err := commdlk.Select(commdlk.RecvCase(in, func(x int, _ bool) { v = x })); err != nil {
				errs <- fmt.Errorf("forwarder recv: %w", err)
				return
			}
			if _, err := commdlk.Select(commdlk.SendCase(out, v)); err != nil {
				errs <- fmt.Errorf("forwarder send: %w", err)
				return
			}
		}
	}()
	seen := make([]bool, total)
	for n := 0; n < total; n++ {
		v, ok, err := out.Recv()
		if err != nil || !ok {
			return fmt.Errorf("workload: ring consumer: ok=%v err=%v", ok, err)
		}
		if v < 0 || v >= total || seen[v] {
			return fmt.Errorf("workload: ring consumer got bad/duplicate item %d", v)
		}
		seen[v] = true
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	if len(res.Detected) > 0 {
		return fmt.Errorf("workload: ring produced %d false detections", len(res.Detected))
	}
	return nil
}
