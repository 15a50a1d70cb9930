package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// slices is how many equal parts a measured phase is cut into: two
// seconds each at the run length BENCHMARK.json fixes.
//
// Every reported value is the quiet quartile of the per-slice values: the
// first quartile of a latency, the third of a rate. The sandbox is a
// virtual machine on a shared host, and what disturbs a run there — a
// neighbour taking the processor for some seconds, a compaction, a GC
// cycle — only ever makes a slice slower. The slower slices say how busy
// the host was; the quieter quarter of the run is what repeats from one
// run to the next. The median and both quartiles are printed beside the
// value.
const slices = 12

// tailMin is the fewest samples a slice needs for its 95th percentile to
// have ten samples beyond it.
const tailMin = 200

// sample is one completed operation: when it completed, as an offset
// from the start of its phase, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// spread is a reported value with the median and quartiles of the slice
// values it was taken from.
type spread struct {
	val, med, q1, q3 float64
	n                int // samples behind the value
}

// Which way a metric is better decides which quartile is the quiet one.
const (
	lowerIsBetter  = false
	higherIsBetter = true
)

// summarize returns the quiet quartile, median and quartiles of
// per-slice values.
func summarize(vals []float64, n int, higher bool) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	sp := spread{med: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: n}
	sp.val = sp.q1
	if higher {
		sp.val = sp.q3
	}
	return sp
}

// whole is a value taken over a whole phase, not from its slices.
func whole(v float64, n int) spread { return spread{val: v, med: v, q1: v, q3: v, n: n} }

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// bySlice partitions samples into the phase's slices by completion time.
func bySlice(samples []sample, phase time.Duration) [][]sample {
	out := make([][]sample, slices)
	for _, s := range samples {
		i := int(int64(s.at) * slices / int64(phase))
		if i < 0 {
			i = 0
		}
		if i >= slices {
			i = slices - 1
		}
		out[i] = append(out[i], s)
	}
	return out
}

// rate is operations completed per second, per slice. With fewer than
// a hundred operations to a slice the count per slice is too coarse, and
// the rate is taken over the whole phase instead.
func rate(samples []sample, phase time.Duration) spread {
	if len(samples) < 100*slices {
		return whole(float64(len(samples))/phase.Seconds(), len(samples))
	}
	per := float64(phase) / slices / float64(time.Second)
	var vals []float64
	for _, sl := range bySlice(samples, phase) {
		vals = append(vals, float64(len(sl))/per)
	}
	return summarize(vals, len(samples), higherIsBetter)
}

// wholeRate is operations per second over the whole phase, with the
// slice rates' median and quartiles beside it: for a phase whose slices
// differ by design, where no one slice stands for the phase.
func wholeRate(samples []sample, phase time.Duration) spread {
	s := rate(samples, phase)
	s.val = float64(len(samples)) / phase.Seconds()
	return s
}

// latency is the p-quantile of operation latency in unit, per slice.
// When the slices are too thin for the quantile (fewer than tailMin
// samples each for a tail, fewer than 5 for a median) it is taken over
// the whole phase instead, and the quartiles collapse.
func latency(samples []sample, phase time.Duration, p float64, unit time.Duration) spread {
	need := 5
	if p > 0.5 {
		need = tailMin
	}
	quant := func(ss []sample) float64 {
		l := make([]float64, len(ss))
		for i, s := range ss {
			l[i] = float64(s.lat) / float64(unit)
		}
		sort.Float64s(l)
		return quantile(l, p)
	}
	parts := bySlice(samples, phase)
	for _, sl := range parts {
		if len(sl) < need {
			return whole(quant(samples), len(samples))
		}
	}
	var vals []float64
	for _, sl := range parts {
		vals = append(vals, quant(sl))
	}
	return summarize(vals, len(samples), lowerIsBetter)
}

// median of a few repeated measurements; 0 when there are none.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB reads the process's peak resident set from the kernel.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
