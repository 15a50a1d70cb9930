package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"communix"
	"communix/benchmark/gen"
	"communix/benchmark/trace"
)

// lockpath measures what the application pays per acquisition: no
// network, nproc goroutines in a closed loop over a fixed call tree of
// native-capture mutexes, a history of realistic size of which a tenth
// of the acquisitions match, and a trickle of new signatures arriving
// as the sync path would deliver them.

type lockSizes struct {
	paths, matched    int
	history, installs int
	installEvery      time.Duration
	chanEvery         int // a channel pair every this many iterations
}

func (c *config) lockSizes() lockSizes {
	// Thirty-two nested paths use each of the sixty-four sites once; six
	// of them are deadlocked in set-up, so 6 of 64 acquisitions (9 %)
	// match the history.
	sz := lockSizes{paths: numSites / 2, matched: 6, history: 256, installEvery: 50 * time.Millisecond, chanEvery: 8}
	if c.tiny {
		sz.history = 32
	}
	sz.installs = int(c.duration/sz.installEvery) + 16
	return sz
}

// hop is one step of a path through the call tree: pad frames of
// recursion, then the lock site.
type hop struct{ site, pad int }

// walker is one goroutine's view of the call tree: its own mutex per
// site (contention between goroutines comes from avoidance alone) and
// what it observed.
type walker struct {
	mu [numSites]*communix.Mutex
	ch *communix.Chan[int]
	// pause, when set, runs between a path's outer and inner
	// acquisition; set-up uses it to line two walkers up for a deadlock.
	pause func()

	body func(w *walker) // what the goroutine runs

	failed  int // errors other than a denied acquisition
	refused int // acquisitions denied with ErrDeadlock
}

func (w *walker) fail(error) { w.failed++ }

func (w *walker) denied(err error) {
	if errors.Is(err, communix.ErrDeadlock) {
		w.refused++
		return
	}
	w.failed++
}

// nested runs the rest of a path inside the lock the caller holds.
func (w *walker) nested(path []hop) {
	if len(path) < 2 {
		return
	}
	if w.pause != nil {
		w.pause()
	}
	descend(w, path[1].pad, path[1:])
}

// walk takes the path's locks, outermost first, each under its padding.
func (w *walker) walk(path []hop) { descend(w, path[0].pad, path) }

// descend pads the stack with n frames and enters the path's first site.
//
//go:noinline
func descend(w *walker, n int, path []hop) {
	if n > 0 {
		descend(w, n-1, path)
		return
	}
	siteFns[path[0].site](w, path)
}

// start runs the walker's body on its own goroutine. Every walker —
// set-up's and the measured ones — starts here and calls walk from run,
// so a site is reached through the same frames each time and the stacks
// set-up fingerprints are the stacks the measured loop presents.
func (w *walker) start(wg *sync.WaitGroup) {
	wg.Add(1)
	go w.run(wg)
}

func (w *walker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	w.body(w)
}

func newWalker(node *communix.Node) *walker {
	w := &walker{ch: communix.NewChan[int](node, "work", 1)}
	for i := range w.mu {
		w.mu[i] = node.NewMutex(fmt.Sprintf("site%02d", i))
	}
	return w
}

func hops(p gen.LockPath) []hop {
	return []hop{{p.Outer, p.OuterPad}, {p.Inner, p.InnerPad}}
}

// deadlockOnce drives paths a and b into a lock-order inversion: two
// walkers share two mutexes crosswise, each takes its outer lock, and
// both then ask for the other's. RecoverBreak denies one of them.
func deadlockOnce(node *communix.Node, a, b gen.LockPath) error {
	x, y := node.NewMutex("x"), node.NewMutex("y")
	wa, wb := &walker{}, &walker{}
	wa.mu[a.Outer], wa.mu[a.Inner] = x, y
	wb.mu[b.Outer], wb.mu[b.Inner] = y, x
	var held, wg sync.WaitGroup
	held.Add(2)
	meet := func() { held.Done(); held.Wait() }
	wa.pause, wb.pause = meet, meet
	wa.body = func(w *walker) { w.walk(hops(a)) }
	wb.body = func(w *walker) { w.walk(hops(b)) }
	wa.start(&wg)
	wb.start(&wg)
	wg.Wait()
	if wa.refused+wb.refused != 1 || wa.failed+wb.failed != 0 {
		return fmt.Errorf("set-up deadlock: %d acquisitions denied, %d failed; want 1 and 0",
			wa.refused+wb.refused, wa.failed+wb.failed)
	}
	return nil
}

// lockRig is one offline node whose history holds the set-up deadlocks
// plus padding.
type lockRig struct {
	node     *communix.Node
	detectUS []float64 // how long each set-up deadlock took to drive and detect
}

func newLockRig(plan *gen.LockPlan) (*lockRig, error) {
	node, err := communix.NewNode(communix.NodeConfig{Policy: communix.RecoverBreak})
	if err != nil {
		return nil, err
	}
	r := &lockRig{node: node}
	for _, d := range plan.Deadlocks {
		t := time.Now()
		if err := deadlockOnce(node, plan.Paths[d[0]], plan.Paths[d[1]]); err != nil {
			node.Close()
			return nil, err
		}
		r.detectUS = append(r.detectUS, float64(time.Since(t))/float64(time.Microsecond))
	}
	if got := node.History().Len(); got != len(plan.Deadlocks) {
		node.Close()
		return nil, fmt.Errorf("set-up: history holds %d signatures after %d deadlocks", got, len(plan.Deadlocks))
	}
	for _, s := range plan.Padding {
		node.History().Add(s)
	}
	return r, nil
}

// lockTally is what one measured walker observed.
type lockTally struct {
	samples    []sample // one per iteration
	iterations int
	// time and pair counts per slice and class
	unmatchedNS, matchedNS, chanNS [slices]int64
	unmatchedN, matchedN, chanN    [slices]int64
	failed                         int
}

// measure runs workers walkers over the plan for d and returns their
// tallies. rec, when set, records a span tree for every 64th iteration.
func (r *lockRig) measure(plan *gen.LockPlan, sz lockSizes, workers int, d time.Duration, rec *trace.Recorder) []lockTally {
	var unmatched, matched [][]hop
	for _, p := range plan.Paths {
		if p.Matched {
			matched = append(matched, hops(p))
		} else {
			unmatched = append(unmatched, hops(p))
		}
	}
	tallies := make([]lockTally, workers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	begin := time.Now()
	for i := 0; i < workers; i++ {
		w := newWalker(r.node)
		t := &tallies[i]
		w.body = func(w *walker) {
			for it := 0; ; it++ {
				t0 := time.Now()
				at := t0.Sub(begin)
				if at >= d {
					break
				}
				sl := int(int64(at) * slices / int64(d))
				var span, child trace.SpanID
				traced := rec != nil && it%64 == 0
				if traced {
					span = rec.Begin("app", "iteration", 0, int64(it))
					child = rec.Begin("dimmunix", "unmatched_block", span, int64(it))
				}
				for _, p := range unmatched {
					w.walk(p)
				}
				t1 := time.Now()
				if traced {
					rec.EndUnits(child, 2*len(unmatched))
					child = rec.Begin("dimmunix", "matched_block", span, int64(it))
				}
				for _, p := range matched {
					w.walk(p)
				}
				t2 := time.Now()
				if traced {
					rec.EndUnits(child, 2*len(matched))
				}
				t.unmatchedNS[sl] += int64(t1.Sub(t0))
				t.unmatchedN[sl] += int64(2 * len(unmatched))
				t.matchedNS[sl] += int64(t2.Sub(t1))
				t.matchedN[sl] += int64(len(matched))
				end := t2
				if it%sz.chanEvery == 0 {
					if traced {
						child = rec.Begin("commdlk", "send_recv", span, int64(it))
					}
					if err := w.ch.Send(it); err != nil {
						w.failed++
					}
					if _, _, err := w.ch.Recv(); err != nil {
						w.failed++
					}
					end = time.Now()
					if traced {
						rec.End(child)
					}
					t.chanNS[sl] += int64(end.Sub(t2))
					t.chanN[sl]++
				}
				if traced {
					rec.End(span)
				}
				t.samples = append(t.samples, sample{at: end.Sub(begin), lat: end.Sub(t0)})
				t.iterations++
			}
			t.failed = w.failed + w.refused
		}
		w.start(&wg)
	}
	// The sync path's trickle: one more signature every installEvery.
	installed := make(chan struct{})
	go func() {
		defer close(installed)
		tick := time.NewTicker(sz.installEvery)
		defer tick.Stop()
		for k := 0; !stop.Load() && k < len(plan.Installs); k++ {
			<-tick.C
			r.node.History().Add(plan.Installs[k])
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-installed
	return tallies
}

func runLockpath(c *config) (*outcome, error) {
	sz := c.lockSizes()
	genStart := time.Now()
	plan, err := gen.Lock(c.seed, numSites, sz.paths, sz.matched, sz.history, sz.installs)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.genSeconds = time.Since(genStart).Seconds()

	var rig *lockRig
	for rep, spent := 0, time.Duration(0); c.setUpAgain(rep, spent); rep++ {
		if rig != nil {
			rig.node.Close()
		}
		t := time.Now()
		if rig, err = newLockRig(plan); err != nil {
			return nil, fmt.Errorf("lockpath set-up: %w", err)
		}
		spent += time.Since(t)
		out.setup = append(out.setup, time.Since(t).Seconds())
	}
	defer func() { rig.node.Close() }()

	workers := runtime.GOMAXPROCS(0)
	d := c.duration
	if c.trace {
		d /= 2
	}
	runtime.GC()
	tallies, err := rig.measureChecked(plan, sz, workers, d, nil)
	if err != nil {
		return nil, err
	}
	lockMetrics(out, tallies, d)
	if !c.trace {
		return out, nil
	}
	return lockLayers(c, rig, plan, sz, workers, d, out)
}

// measureChecked is measure behind the lockpath correctness gate: no
// deadlock, no error, and the runtime granted exactly the acquisitions
// the walkers issued.
func (r *lockRig) measureChecked(plan *gen.LockPlan, sz lockSizes, workers int, d time.Duration, rec *trace.Recorder) ([]lockTally, error) {
	before := r.node.Runtime().Stats()
	tallies := r.measure(plan, sz, workers, d, rec)
	after := r.node.Runtime().Stats()
	issued, failed := uint64(0), 0
	for _, t := range tallies {
		issued += uint64(t.iterations * 2 * len(plan.Paths))
		failed += t.failed
	}
	switch {
	case failed != 0:
		return nil, fmt.Errorf("lockpath: correctness: %d operations failed", failed)
	case after.Deadlocks != before.Deadlocks:
		return nil, fmt.Errorf("lockpath: correctness: %d deadlocks during the measured phase", after.Deadlocks-before.Deadlocks)
	case r.node.ChanRuntime().Stats().Deadlocks != 0:
		return nil, errors.New("lockpath: correctness: channel deadlock during the measured phase")
	case after.Acquisitions-before.Acquisitions != issued:
		return nil, fmt.Errorf("lockpath: correctness: runtime granted %d acquisitions, walkers issued %d",
			after.Acquisitions-before.Acquisitions, issued)
	}
	return tallies, nil
}

// lockMetrics merges the walkers' tallies into the workload's metrics.
func lockMetrics(out *outcome, tallies []lockTally, d time.Duration) {
	var all []sample
	var uNS, mNS, cNS, uN, mN, cN [slices]int64
	for _, t := range tallies {
		all = append(all, t.samples...)
		out.attempted += t.iterations
		for s := 0; s < slices; s++ {
			uNS[s] += t.unmatchedNS[s]
			uN[s] += t.unmatchedN[s]
			mNS[s] += t.matchedNS[s]
			mN[s] += t.matchedN[s]
			cNS[s] += t.chanNS[s]
			cN[s] += t.chanN[s]
		}
	}
	out.named["app_ops_s"] = named(rate(all, d), "1/s")
	perOp := func(ns, n [slices]int64, less [slices]float64) ([]float64, int) {
		var vals []float64
		total := 0
		for s := 0; s < slices; s++ {
			if n[s] > 0 {
				vals = append(vals, float64(ns[s])/float64(n[s])-less[s])
				total += int(n[s])
			}
		}
		return vals, total
	}
	var zero, inner [slices]float64
	u, un := perOp(uNS, uN, zero)
	out.named["lock_ns_op"] = named(summarize(u, un, lowerIsBetter), "ns")
	// A matched path is its matched outer pair plus an unmatched inner
	// pair; take the latter off at the same slice's unmatched cost.
	for s := 0; s < slices; s++ {
		if uN[s] > 0 {
			inner[s] = float64(uNS[s]) / float64(uN[s])
		}
	}
	m, mn := perOp(mNS, mN, inner)
	out.named["lock_matched_ns_op"] = named(summarize(m, mn, lowerIsBetter), "ns")
	ch, cn := perOp(cNS, cN, zero)
	out.named["chan_ns_op"] = named(summarize(ch, cn, lowerIsBetter), "ns")
	out.bounded(out.named["lock_ns_op"].in("ms", 1e-6), out.named["app_ops_s"], out.named["lock_matched_ns_op"].in("ms", 1e-6))
}
