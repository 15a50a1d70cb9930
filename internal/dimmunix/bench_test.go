package dimmunix

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// benchModes runs the sub-benchmarks across the three runtime modes:
// the full sharded fast path, the "global" reference (fast path on,
// matched acquisitions funneled through rt.mu — the pre-shard
// behavior), and the all-slow global-mutex reference.
var benchModes = []struct {
	name   string
	mutate func(*Config)
}{
	{"fastpath", func(*Config) {}},
	{"global", func(c *Config) { c.ShardedAvoidanceDisabled = true }},
	{"reference", func(c *Config) { c.FastPathDisabled = true }},
}

// BenchmarkAcquireReleaseUncontended measures the lock manager's base
// cost — the overhead every protected program pays on every critical
// section — on the lock-free fast path and the global-mutex reference,
// with an empty and a populated (never-matching) history.
func BenchmarkAcquireReleaseUncontended(b *testing.B) {
	for _, mode := range benchModes {
		for _, sigs := range []int{0, 64} {
			b.Run(fmt.Sprintf("%s/history=%d", mode.name, sigs), func(b *testing.B) {
				ps := newPairStacks()
				history := NewHistory()
				for i := 0; i < sigs; i++ {
					pad := ps.signature().Clone()
					pad.Threads[0].Outer[len(pad.Threads[0].Outer)-1] = sig.Frame{
						Class: fmt.Sprintf("pad%d", i), Method: "m", Line: 1,
					}
					pad.Normalize()
					history.Add(pad)
				}
				cfg := Config{History: history}
				mode.mutate(&cfg)
				rt := NewRuntime(cfg)
				defer rt.Close()
				l := rt.NewLock("l")
				cs := mkStack("T", "s", 10)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rt.Acquire(1, l, cs); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(1, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAcquireReleaseParallel runs the uncontended acquisition from
// GOMAXPROCS goroutines, each on a private lock with a non-empty
// history — the `-experiment runtime` sweep's headline configuration in
// go-bench form.
func BenchmarkAcquireReleaseParallel(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			ps := newPairStacks()
			history := NewHistory()
			history.Add(ps.signature())
			cfg := Config{History: history}
			mode.mutate(&cfg)
			rt := NewRuntime(cfg)
			defer rt.Close()
			var nextTID atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tid := ThreadID(nextTID.Add(1))
				l := rt.NewLock("l")
				cs := mkStack(fmt.Sprintf("W%d", tid), "s", 10)
				for pb.Next() {
					if err := rt.Acquire(tid, l, cs); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(tid, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAcquireReleaseMatchedParallel is the matched-path headline:
// every acquisition matches a history signature (registering a position
// and evaluating the instantiation threat) but never yields, from
// GOMAXPROCS goroutines each with a private lock and a private hot
// signature — the workload the per-signature shards exist for.
func BenchmarkAcquireReleaseMatchedParallel(b *testing.B) {
	// Distinct lock sites per signature (top frames differ), like real
	// applications: the avoidance index then yields exactly one candidate
	// per matched acquisition.
	mkHot := func(i int) (*sig.Signature, sig.Stack) {
		outer := mkStack(fmt.Sprintf("Hot%d", i), fmt.Sprintf("lock%d", i), 6)
		s := sig.New(
			sig.ThreadSpec{Outer: outer, Inner: mkStack(fmt.Sprintf("Hot%d", i), fmt.Sprintf("inner%d", i), 6)},
			sig.ThreadSpec{Outer: mkStack(fmt.Sprintf("Other%d", i), fmt.Sprintf("olock%d", i), 6), Inner: mkStack(fmt.Sprintf("Other%d", i), fmt.Sprintf("oinner%d", i), 6)},
		)
		s.Origin = sig.OriginRemote
		return s, outer
	}
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			history := NewHistory()
			const hotSigs = 64
			outers := make([]sig.Stack, hotSigs)
			for i := 0; i < hotSigs; i++ {
				s, outer := mkHot(i)
				history.Add(s)
				outers[i] = outer
			}
			cfg := Config{History: history}
			mode.mutate(&cfg)
			rt := NewRuntime(cfg)
			defer rt.Close()
			// Warm up: the first matched acquisition after a history
			// change refreshes the position table on the slow path.
			warm := rt.NewLock("warm")
			if err := rt.Acquire(1, warm, outers[0]); err != nil {
				b.Fatal(err)
			}
			if err := rt.Release(1, warm); err != nil {
				b.Fatal(err)
			}
			var nextTID atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tid := ThreadID(nextTID.Add(1))
				l := rt.NewLock("l")
				cs := outers[int(tid)%hotSigs]
				for pb.Next() {
					if err := rt.Acquire(tid, l, cs); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(tid, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAcquireReleaseWithHistory measures the same operation when
// every acquisition matches a history signature slot (registration +
// threat evaluation) but never needs to yield.
func BenchmarkAcquireReleaseWithHistory(b *testing.B) {
	for _, sigs := range []int{1, 20, 200} {
		b.Run(fmt.Sprintf("sigs=%d", sigs), func(b *testing.B) {
			ps := newPairStacks()
			history := NewHistory()
			history.Add(ps.signature())
			// Pad the history with unrelated signatures: matching is
			// top-frame indexed, so size should barely matter.
			for i := 0; i < sigs-1; i++ {
				pad := ps.signature().Clone()
				pad.Threads[0].Outer[len(pad.Threads[0].Outer)-1] = sig.Frame{
					Class: fmt.Sprintf("pad%d", i), Method: "m", Line: 1,
				}
				pad.Normalize()
				history.Add(pad)
			}
			rt := NewRuntime(Config{History: history})
			defer rt.Close()
			l := rt.NewLock("l")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Acquire(1, l, ps.outerA); err != nil {
					b.Fatal(err)
				}
				if err := rt.Release(1, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAvoidanceAblation quantifies what disabling the avoidance
// module saves on matched acquisitions — the DESIGN.md ablation for
// Dimmunix's core design choice.
func BenchmarkAvoidanceAblation(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "avoidance-on"
		if disabled {
			name = "avoidance-off"
		}
		b.Run(name, func(b *testing.B) {
			ps := newPairStacks()
			history := NewHistory()
			history.Add(ps.signature())
			rt := NewRuntime(Config{History: history, AvoidanceDisabled: disabled})
			defer rt.Close()
			l := rt.NewLock("l")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rt.Acquire(1, l, ps.outerA); err != nil {
					b.Fatal(err)
				}
				if err := rt.Release(1, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistoryMatchOuter isolates the per-acquisition signature
// lookup.
func BenchmarkHistoryMatchOuter(b *testing.B) {
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if refs := history.MatchOuter(ps.outerA); len(refs) != 1 {
			b.Fatal("expected one match")
		}
	}
}

// BenchmarkContendedHandoff measures queue handoff between two threads.
func BenchmarkContendedHandoff(b *testing.B) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	l := rt.NewLock("l")
	cs := mkStack("T", "s", 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.Acquire(2, l, cs); err != nil {
				return
			}
			_ = rt.Release(2, l)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Acquire(1, l, cs); err != nil {
			b.Fatal(err)
		}
		_ = rt.Release(1, l)
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkDetect times the detection of a new deadlock whose
// fingerprint has the protect workload's size: depth-20 stacks whose
// frames carry 64-hex code-unit hashes, about 6 KB. Two threads invert
// two locks under RecoverBreak, and every iteration closes a new cycle
// (the closer's inner stack differs in its bottom frame), so each
// fingerprint is new to the history; it is removed again between
// iterations. detect-ns and detect-allocs cover the closing Acquire up
// to OnDeadlock; ns/op adds each cycle's set-up.
func BenchmarkDetect(b *testing.B) {
	hexStack := func(chain, site string) sig.Stack {
		cs := mkStack(chain, site, 20)
		for i := range cs {
			sum := sha256.Sum256([]byte(cs[i].Class + cs[i].Method))
			cs[i].Hash = hex.EncodeToString(sum[:])
		}
		return cs
	}
	outerA, innerAB := hexStack("T1", "siteA"), hexStack("T1", "siteAB")
	outerB, innerBA := hexStack("T2", "siteB"), hexStack("T2", "siteBA")

	// OnDeadlock runs on the closing thread, the benchmark's own.
	var detected time.Time
	var after runtime.MemStats
	var found *sig.Signature
	rt := NewRuntime(Config{Policy: RecoverBreak, OnDeadlock: func(d Deadlock) {
		detected = time.Now()
		runtime.ReadMemStats(&after)
		found = d.Signature
	}})
	defer rt.Close()
	la, lb := rt.NewLock("A"), rt.NewLock("B")
	waiting := func(t ThreadID) bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		ts := rt.threads[t]
		return ts != nil && ts.wait != nil
	}

	// Thread 1 holds A and waits for B, once per turn.
	turn, done := make(chan struct{}), make(chan error)
	go func() {
		for range turn {
			if err := rt.Acquire(1, la, outerA); err != nil {
				done <- err
				continue
			}
			err := rt.Acquire(1, lb, innerAB)
			if err == nil {
				err = rt.Release(1, lb)
			}
			if rerr := rt.Release(1, la); err == nil {
				err = rerr
			}
			done <- err
		}
	}()
	defer close(turn)

	var before runtime.MemStats
	var nanos, allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Acquire(2, lb, outerB); err != nil {
			b.Fatal(err)
		}
		turn <- struct{}{}
		for !waiting(1) {
			runtime.Gosched()
		}
		inner := innerBA.Clone()
		inner[0].Line = 1 + i
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := rt.Acquire(2, la, inner); err != ErrDeadlock {
			b.Fatalf("closing acquisition: %v, want ErrDeadlock", err)
		}
		nanos += uint64(detected.Sub(start))
		allocs += after.Mallocs - before.Mallocs
		if err := rt.Release(2, lb); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		if !rt.History().Remove(found.ID()) {
			b.Fatal("the fingerprint was not new")
		}
	}
	b.ReportMetric(float64(nanos)/float64(b.N), "detect-ns")
	b.ReportMetric(float64(allocs)/float64(b.N), "detect-allocs")
}

// BenchmarkGeneralizeBatch folds 2,048 validated remote signatures into
// an empty history, as the agent's startup pass does: 1,024 bugs and
// 1,024 manifestations of random ones among them, shuffled, with
// 64-hex code-unit hashes like catchup's. Candidates carry their bug
// hashes, which the agent derives while validating. It reports ns/sig.
func BenchmarkGeneralizeBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := sigtest.DefaultVocabulary
	const bugs = 1024
	sigs := make([]*sig.Signature, 0, 2*bugs)
	for i := range bugs {
		sigs = append(sigs, sigtest.DistinctTops(r, v, i, 5, 9))
	}
	for range bugs {
		sigs = append(sigs, sigtest.Manifestation(r, v, sigs[r.Intn(bugs)], 1+r.Intn(4)))
	}
	r.Shuffle(len(sigs), func(i, j int) { sigs[i], sigs[j] = sigs[j], sigs[i] })
	cands := make([]Candidate, len(sigs))
	for i, s := range sigs {
		for _, t := range s.Threads {
			for _, st := range []sig.Stack{t.Outer, t.Inner} {
				for k := range st {
					sum := sha256.Sum256([]byte(st[k].Class))
					st[k].Hash = hex.EncodeToString(sum[:])
				}
			}
		}
		s.Normalize()
		s.Origin = sig.OriginRemote
		cands[i] = Candidate{Sig: s, Bug: s.BugHash()}
	}
	var policy sig.MergePolicy
	n := 0
	// Each iteration's history is new, so handing it the same signatures
	// again is allowed: no history writes to a signature it stores.
	for b.Loop() {
		NewHistory().GeneralizeBatch(cands, policy)
		n++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*len(cands)), "ns/sig")
}
