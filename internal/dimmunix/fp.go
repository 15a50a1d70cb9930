package dimmunix

import (
	"sync"
	"time"
)

// False-positive heuristic constants (§III-C1): a signature is warned
// about when it accumulates fpMinInstantiations instantiations with no
// true positive, and at least one window of fpBurstWindow contained more
// than fpBurstThreshold instantiations.
const (
	fpMinInstantiations = 100
	fpBurstThreshold    = 10
	fpBurstWindow       = time.Second
)

// fpDetector tracks per-signature instantiation statistics and flags
// signatures that serialize threads without ever preventing a deadlock —
// whether malicious (functionality DoS) or genuine-but-overeager.
type fpDetector struct {
	clock  func() time.Time
	onWarn func(FalsePositiveWarning)

	mu    sync.Mutex
	stats map[uint64]*fpStat // by history insertion number
}

type fpStat struct {
	instantiations uint64
	truePositives  uint64
	burst          []time.Time // instantiations within the trailing window
	burstMax       int
	warned         bool
}

func newFPDetector(clock func() time.Time, onWarn func(FalsePositiveWarning)) *fpDetector {
	return &fpDetector{
		clock:  clock,
		onWarn: onWarn,
		stats:  make(map[uint64]*fpStat),
	}
}

// recordInstantiation notes one avoidance suspension attributed to the
// signature with history insertion number seq; tp marks it a true
// positive (the suspension averted an actual wait-for cycle). When the
// warning condition first becomes true, a warning is returned for the
// caller to name (SigID) and deliver once locks are dropped.
func (d *fpDetector) recordInstantiation(seq uint64, tp bool) *FalsePositiveWarning {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.stats[seq]
	if !ok {
		st = &fpStat{}
		d.stats[seq] = st
	}
	st.instantiations++
	if tp {
		st.truePositives++
	}

	now := d.clock()
	cutoff := now.Add(-fpBurstWindow)
	keep := st.burst[:0]
	for _, ts := range st.burst {
		if ts.After(cutoff) {
			keep = append(keep, ts)
		}
	}
	st.burst = append(keep, now)
	if len(st.burst) > st.burstMax {
		st.burstMax = len(st.burst)
	}

	if !st.warned &&
		st.instantiations >= fpMinInstantiations &&
		st.truePositives == 0 &&
		st.burstMax > fpBurstThreshold {
		st.warned = true
		return &FalsePositiveWarning{Instantiations: st.instantiations}
	}
	return nil
}

// snapshot returns (instantiations, truePositives, warned) for a
// signature; zeros when untracked.
func (d *fpDetector) snapshot(seq uint64) (uint64, uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.stats[seq]
	if !ok {
		return 0, 0, false
	}
	return st.instantiations, st.truePositives, st.warned
}

// SignatureStats reports how often a signature's instantiation was
// avoided and how often that avoidance was a true positive — the §III-C1
// bookkeeping, exposed for tests and for the embedding application's
// telemetry. sigID names the signature holding it (see History); a
// signature no longer stored has no stats.
func (rt *Runtime) SignatureStats(sigID string) (instantiations, truePositives uint64, warned bool) {
	e := rt.history.lookup(sigID)
	if e == nil {
		return 0, 0, false
	}
	return rt.fp.snapshot(e.seq)
}
