package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// prepareRun returns n WAL entries of distinct signatures; the entries
// at the positions in spaced are re-encoded with whitespace, so they
// are not sig.Encode's bytes.
func prepareRun(t *testing.T, n int, spaced ...int) []walEntry {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	run := make([]walEntry, n)
	for i := range run {
		data, err := sig.Encode(distinctSig(r, i))
		if err != nil {
			t.Fatal(err)
		}
		run[i] = walEntry{user: ids.UserID(i%7 + 1), unix: 1_700_000_000, data: data}
	}
	for _, i := range spaced {
		if i >= n {
			continue
		}
		run[i].data = []byte(strings.Replace(string(run[i].data), ",", ", ", -1))
	}
	return run
}

// TestPrepareMatchesInline: however a run is split across goroutines,
// prepare derives for every entry what sig.DecodeVerbatim, sig.Encode,
// entryKey and topKeys derive one entry at a time — the canonical bytes,
// their key and the top frames — and the first undecodable entry is the
// one it reports.
func TestPrepareMatchesInline(t *testing.T) {
	for _, n := range []int{0, 1, prepareChunk - 1, 2 * prepareChunk, 2*prepareChunk + 1, 7*prepareChunk + 3} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("n=%d/procs=%d", n, procs), func(t *testing.T) {
				run := prepareRun(t, n, n/2)
				want := make([]walEntry, n)
				keys := make([]prepared, n)
				for i, e := range run {
					s, exact, err := sig.DecodeVerbatim(e.data)
					if err != nil {
						t.Fatal(err)
					}
					data := e.data
					if !exact {
						if data, err = sig.Encode(s); err != nil {
							t.Fatal(err)
						}
					}
					want[i] = walEntry{user: e.user, unix: e.unix, data: data}
					keys[i] = prepared{key: entryKey(data), tops: topKeys(s)}
				}
				withProcs(procs, func() {
					got, bad, err := prepare(run)
					if err != nil || bad != n {
						t.Fatalf("prepare: first bad %d, %v; want %d, nil", bad, err, n)
					}
					if !reflect.DeepEqual(got, keys) || !reflect.DeepEqual(run, want) {
						t.Fatal("prepare's results differ from one-at-a-time preparation")
					}
				})
				if n < 2 {
					return
				}
				for _, at := range [][2]int{{0, n - 1}, {n / 3, 2 * n / 3}, {n - 2, n - 1}} {
					run := prepareRun(t, n)
					run[at[0]].data = []byte(`{"threads":[]}`)
					run[at[1]].data = []byte(`not json`)
					withProcs(procs, func() {
						if _, bad, err := prepare(run); bad != at[0] || err == nil {
							t.Fatalf("bad entries at %v: prepare reports %d, %v; want the first", at, bad, err)
						}
					})
				}
			})
		}
	}
}

// parallelDir writes a durable directory whose recovery takes the
// parallel path: segments of about 300 records, a third of them
// accepted yesterday, from users who have two of their three signatures
// for today left, and a final segment holding an entry that is not
// sig.Encode's bytes.
func parallelDir(t *testing.T, clock *testClock) string {
	t.Helper()
	dir := t.TempDir()
	cfg := persistCfg(dir, clock)
	cfg.MaxPerDay = 3
	cfg.segmentMaxBytes = 512 << 10
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 300; i++ {
		mustAdd(t, st, ids.UserID(i/3+1), distinctSig(r, i))
	}
	clock.Advance(25 * time.Hour)
	for i := 300; i < 900; i++ {
		mustAdd(t, st, ids.UserID((i-300)/2+1), distinctSig(r, i))
	}
	n := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := sig.Encode(distinctSig(r, n))
	if err != nil {
		t.Fatal(err)
	}
	spaced := []byte(strings.Replace(string(data), ",", ", ", -1))
	writeSegmentFile(t, dir, uint64(n+1), []walEntry{{user: 999, unix: clock.Now().Unix(), data: spaced}})
	return dir
}

// openProbe opens a copy of dir under GOMAXPROCS procs and returns its
// digest, its GET sequence, and the verdicts on a fixed sequence of
// probe ADDs: duplicates of recovered signatures, signatures adjacent
// to a user's recovered ones, and two new signatures from that user,
// which meet its daily budget.
func openProbe(t *testing.T, dir string, clock *testClock, maxPerDay, procs int) (string, []string, []AddResult) {
	t.Helper()
	cfg := persistCfg(copyDir(t, dir), clock)
	cfg.MaxPerDay = maxPerDay
	var st *Store
	withProcs(procs, func() {
		var err error
		if st, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
	})
	defer st.Close()
	digest, seq := st.StateDigest(), getAll(t, st)
	entries, _, _ := st.EntryPage(1, 0, 0)
	r := rand.New(rand.NewSource(7))
	var ups []Upload
	for i := 0; i < len(entries); i += len(entries)/25 + 1 {
		e := entries[i]
		s, err := sig.Decode(e.Data)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, Upload{User: e.User + 1, Sig: s}) // a duplicate
		adj := s.Clone()
		adj.Threads[0].Outer = append(adj.Threads[0].Outer[:len(adj.Threads[0].Outer):len(adj.Threads[0].Outer)],
			sigtest.Frame(r, sigtest.DefaultVocabulary))
		ups = append(ups, Upload{User: e.User, Sig: adj})
		ups = append(ups, Upload{User: e.User, Sig: distinctSig(r, 1_000_000+i)})
		ups = append(ups, Upload{User: e.User, Sig: distinctSig(r, 2_000_000+i)})
	}
	return digest, seq, st.AddBatch(ups)
}

// TestOpenParallelMatchesSequential: a directory opened with recovery
// spread over four goroutines holds exactly what one goroutine
// recovers — digest, GET bytes — and decides later duplicate, adjacency
// and budget questions the same way. The legacy directory included.
func TestOpenParallelMatchesSequential(t *testing.T) {
	clock, legacyClock := newTestClock(), newTestClock()
	legacy, _ := legacyDir(t)
	for name, tc := range map[string]struct {
		dir       string
		clock     *testClock
		maxPerDay int
	}{
		"segments": {parallelDir(t, clock), clock, 3},
		"legacy":   {legacy, legacyClock, DefaultMaxPerDay},
	} {
		t.Run(name, func(t *testing.T) {
			d1, seq1, res1 := openProbe(t, tc.dir, tc.clock, tc.maxPerDay, 1)
			d4, seq4, res4 := openProbe(t, tc.dir, tc.clock, tc.maxPerDay, 4)
			if d1 != d4 || !reflect.DeepEqual(seq1, seq4) {
				t.Fatalf("GOMAXPROCS 4 recovered a different state: digest %s, want %s", d4, d1)
			}
			if name == "legacy" && d1 != legacyDigest {
				t.Fatalf("legacy digest %s, want %s", d1, legacyDigest)
			}
			if !reflect.DeepEqual(res1, res4) {
				t.Fatalf("probe verdicts differ:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", res1, res4)
			}
			verdicts := map[string]int{}
			for _, res := range res1 {
				switch {
				case errors.Is(res.Err, ErrAdjacent):
					verdicts["adjacent"]++
				case errors.Is(res.Err, ErrRateLimited):
					verdicts["budget"]++
				case res.Err == nil && !res.Added:
					verdicts["duplicate"]++
				}
			}
			if verdicts["duplicate"] == 0 || verdicts["adjacent"] == 0 || (name == "segments" && verdicts["budget"] == 0) {
				t.Fatalf("the probes reached too few verdicts: %v", verdicts)
			}
		})
	}
}

// TestOpenReportsFirstBadRecord: of two bad records in one segment, the
// error always names the earlier one, however recovery splits the run:
// two CRC-valid but undecodable records, and a duplicate before or
// after an undecodable one.
func TestOpenReportsFirstBadRecord(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	good := func(i int) walEntry {
		data, err := sig.Encode(distinctSig(r, i))
		if err != nil {
			t.Fatal(err)
		}
		return walEntry{user: ids.UserID(i + 1), unix: 1_700_000_000, data: data}
	}
	undecodable := func([]walEntry) walEntry {
		return walEntry{user: 1, unix: 1_700_000_000, data: []byte(`{"threads":[]}`)}
	}
	notJSON := func([]walEntry) walEntry { return walEntry{user: 2, data: []byte(`not json`)} }
	duplicate := func(run []walEntry) walEntry { return run[10] }
	for _, tc := range []struct {
		name          string
		at150, at450  func(run []walEntry) walEntry
		firstMentions string
	}{
		{"undecodable/undecodable", undecodable, notJSON, "decode signature"},
		{"duplicate/undecodable", duplicate, undecodable, "duplicate record"},
		{"undecodable/duplicate", undecodable, duplicate, "decode signature"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := make([]walEntry, 600)
			for i := range run {
				run[i] = good(i)
			}
			run[150], run[450] = tc.at150(run), tc.at450(run)
			dir := t.TempDir()
			path := writeSegmentFile(t, dir, 1, run)
			for _, procs := range []int{1, 4, runtime.NumCPU()} {
				withProcs(procs, func() {
					_, err := Open(Config{DataDir: dir, ReadOnly: true})
					want := fmt.Sprintf("store: %s: record 151: ", path)
					if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), tc.firstMentions) {
						t.Fatalf("GOMAXPROCS %d: Open = %v, want %q… naming %q", procs, err, want, tc.firstMentions)
					}
				})
			}
		})
	}
}

// TestApplyReplicatedOnePageMatchesPerEntryPages: a follower that takes
// the primary's whole log as one page, prepared across goroutines, ends
// in the state of one that takes it an entry at a time.
func TestApplyReplicatedOnePageMatchesPerEntryPages(t *testing.T) {
	clock := newTestClock()
	primary := New(Config{MaxPerDay: 3, Clock: clock.Now})
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 600; i++ {
		if i == 200 {
			clock.Advance(25 * time.Hour)
		}
		_, _ = primary.Add(ids.UserID(i%150+1), distinctSig(r, i))
	}
	entries, _, _ := primary.EntryPage(1, 0, 0)
	whole := New(Config{MaxPerDay: 3, Clock: clock.Now})
	withProcs(4, func() {
		if n, err := whole.ApplyReplicated(1, entries); err != nil || n != len(entries) {
			t.Fatalf("one page: applied %d of %d: %v", n, len(entries), err)
		}
	})
	single := New(Config{MaxPerDay: 3, Clock: clock.Now})
	for i, e := range entries {
		if _, err := single.ApplyReplicated(i+1, []Entry{e}); err != nil {
			t.Fatalf("entry %d: %v", i+1, err)
		}
	}
	want := primary.StateDigest()
	if got := whole.StateDigest(); got != want {
		t.Fatalf("one-page follower digest %s, want the primary's %s", got, want)
	}
	if got := single.StateDigest(); got != want {
		t.Fatalf("per-entry follower digest %s, want the primary's %s", got, want)
	}
}
