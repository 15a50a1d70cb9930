package agent_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"communix/internal/agent"
	"communix/internal/bytecode"
	"communix/internal/dimmunix"
	"communix/internal/repo"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/workload"
)

// passApp is the application a pass validates against: a generated
// application with every class loaded, whose nested-site set a test can
// grow as a class load would.
type passApp struct {
	*bytecode.View
	later map[string]struct{} // proved nested once loadClasses runs
	grown bool
}

func (a *passApp) NestedSiteKeys() map[string]struct{} {
	keys := a.View.NestedSiteKeys()
	if !a.grown {
		return keys
	}
	out := maps.Clone(keys)
	maps.Copy(out, a.later)
	return out
}

func (a *passApp) loadClasses() { a.grown = true }

// passFixture is a repository mix that reaches every outcome of a pass,
// and the local history it starts from: signatures added, merged into a
// history signature, subsumed by one, and sent again; top frames
// from another build (rejected), lower frames from another build
// (trimmed), too-shallow outer stacks (rejected), and outer sites the
// application proves nested only after a class load (pending). The
// history holds two manifestations of some bugs, so the order of the
// merges decides which of them a signature merges into; a local
// signature shallower than the depth floor, which remote manifestations
// of its bug must not merge into; and, like the repository, signatures
// whose two threads share their top frames, which Merge aligns greedily.
type passFixture struct {
	app   *bytecode.App
	local []*sig.Signature
	raw   []json.RawMessage
	later map[string]struct{}
}

func newPassFixture(t testing.TB, seed int64, n int) *passFixture {
	t.Helper()
	app, err := bytecode.Generate(bytecode.Profile{
		Name: "pass", LOC: 20000, SyncSites: 96, ExplicitOps: 4,
		Analyzed: 80, Nested: 32, PathVariants: 3, SharedTail: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &passFixture{app: app, later: map[string]struct{}{}}
	r := rand.New(rand.NewSource(seed))
	thread := func(lp bytecode.LockPath) sig.ThreadSpec {
		inner := lp.Inner
		if inner == nil {
			inner = lp.Outer
		}
		return sig.ThreadSpec{Outer: f.stamp(lp.Outer), Inner: f.stamp(inner)}
	}
	// Constructs are the nested sites with their call-path variants;
	// unproven paths end in sites the application does not prove nested.
	byTop := map[string][]bytecode.LockPath{}
	var tops []string
	var unproven []bytecode.LockPath
	for _, lp := range app.LockPaths() {
		if !lp.Nested || lp.Opaque {
			unproven = append(unproven, lp)
			f.later[lp.Outer.Top().Key()] = struct{}{}
			continue
		}
		key := lp.Outer.Top().Key()
		if byTop[key] == nil {
			tops = append(tops, key)
		}
		byTop[key] = append(byTop[key], lp)
	}
	if len(tops) < 8 || len(unproven) == 0 {
		t.Fatalf("generated application has %d nested constructs and %d unproven paths", len(tops), len(unproven))
	}
	// A bug pairs two constructs; every eighth pairs one with itself,
	// so both threads share their top frames.
	bugs := make([][2]string, 24)
	for i := range bugs {
		a := tops[r.Intn(len(tops))]
		b := a
		for i%8 != 0 && b == a {
			b = tops[r.Intn(len(tops))]
		}
		bugs[i] = [2]string{a, b}
	}
	manifest := func(bug [2]string) *sig.Signature {
		va, vb := byTop[bug[0]], byTop[bug[1]]
		return sig.New(thread(va[r.Intn(len(va))]), thread(vb[r.Intn(len(vb))]))
	}
	local := func(s *sig.Signature) {
		s.Origin = sig.OriginLocal
		f.local = append(f.local, s)
	}
	for i, bug := range bugs[:8] {
		local(manifest(bug))
		if i%2 == 0 {
			// Add never merges, so the history can start with two
			// manifestations a remote signature could merge into:
			// generalizing in another order ends in another history.
			local(manifest(bug))
		}
	}
	// A shallow local signature, the only one of its bug, cut from the
	// manifestation the repository opens with: the depth floor keeps
	// that manifestation from merging into it, so it is added.
	full := manifest(bugs[9])
	shallow := full.Clone()
	for j := range shallow.Threads {
		shallow.Threads[j].Outer = shallow.Threads[j].Outer.Suffix(sig.MinRemoteOuterDepth - 2)
	}
	shallow.Normalize()
	local(shallow)
	sent := []*sig.Signature{full}
	critical := workload.MaliciousSignatures(app, 64, workload.AttackCriticalPath, seed)
	depth1 := workload.MaliciousSignatures(app, 64, workload.AttackDepth1, seed)
	classes := app.Classes
	for len(sent) < n {
		var s *sig.Signature
		switch k := r.Intn(20); {
		case k < 8: // another manifestation of a bug
			s = manifest(bugs[r.Intn(len(bugs))])
		case k < 10: // a manifestation with a caller below one outer stack
			s = manifest(bugs[r.Intn(len(bugs))])
			c := classes[r.Intn(len(classes))]
			caller := app.Frame(c.Name, "caller", 1+r.Intn(50))
			if k == 9 { // from another build: trimmed away
				caller.Hash = "another-build"
			}
			s.Threads[0].Outer = append(sig.Stack{caller}, s.Threads[0].Outer...)
			s.Normalize()
		case k < 12:
			s = critical[r.Intn(len(critical))].Clone()
		case k < 14: // outer stacks of depth 1
			s = depth1[r.Intn(len(depth1))].Clone()
		case k < 16: // top frames the application does not have
			s = sigtest.Signature(r, sigtest.DefaultVocabulary, 5, 9)
		case k < 18: // an outer site proved nested only after a class load
			va := byTop[tops[r.Intn(len(tops))]]
			s = sig.New(thread(unproven[r.Intn(len(unproven))]), thread(va[r.Intn(len(va))]))
		default:
			s = sent[r.Intn(len(sent))].Clone() // sent again
		}
		sent = append(sent, s)
	}
	for _, s := range sent {
		data, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		f.raw = append(f.raw, data)
	}
	return f
}

// stamp attaches the application's class hashes to a modelled stack.
func (f *passFixture) stamp(cs sig.Stack) sig.Stack {
	out := cs.Clone()
	for i := range out {
		out[i] = f.app.Frame(out[i].Class, out[i].Method, out[i].Line)
	}
	return out
}

// newAgent wires an agent over a repository holding the fixture's first
// n signatures and a history holding its local ones.
func (f *passFixture) newAgent(t testing.TB, n int) (*agent.Agent, *passApp, *repo.Repo, *dimmunix.History) {
	t.Helper()
	view := bytecode.NewView(f.app)
	view.LoadAll()
	app := &passApp{View: view, later: f.later}
	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Append(f.raw[:n], n+1); err != nil {
		t.Fatal(err)
	}
	hist := dimmunix.NewHistory()
	for _, s := range f.local {
		hist.Add(s)
	}
	a, err := agent.New(agent.Config{App: app, AppKey: "app", Repo: rp, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	return a, app, rp, hist
}

// refHistory is History.Generalize as one signature at a time over a
// map: Merge with each same-bug signature in insertion order, Equal to
// tell a subsumed signature, Add when nothing merges.
type refHistory struct {
	sigs  map[string]*sig.Signature
	byBug map[string][]string
	// mutations counts the signatures stored, as History.Mutations does:
	// the order of the merges decides how many there are even where it
	// does not decide the signatures they end in.
	mutations uint64
	// Outcome tallies, so the test can check the fixture reaches every
	// branch.
	added, replaced, subsumed, floorRefused, sameTops int
}

func newRefHistory(local []*sig.Signature) *refHistory {
	m := &refHistory{sigs: map[string]*sig.Signature{}, byBug: map[string][]string{}}
	for _, s := range local {
		if id := s.ID(); m.sigs[id] == nil {
			m.put(s.Clone(), id)
		}
	}
	return m
}

func (m *refHistory) put(s *sig.Signature, id string) {
	m.mutations++
	m.sigs[id] = s
	m.byBug[s.BugKey()] = append(m.byBug[s.BugKey()], id)
}

func (m *refHistory) generalize(s *sig.Signature, p sig.MergePolicy) bool {
	bug := s.BugKey()
	if t, u := s.Threads[0], s.Threads[1]; t.Outer.Top().SameSite(u.Outer.Top()) && t.Inner.Top().SameSite(u.Inner.Top()) {
		m.sameTops++
	}
	for _, id := range m.byBug[bug] {
		old := m.sigs[id]
		merged, ok := p.Merge(old, s)
		if !ok {
			if old.Origin == sig.OriginLocal && old.MinOuterDepth() < sig.MinRemoteOuterDepth {
				m.floorRefused++
			}
			continue
		}
		if merged.Equal(old) {
			m.subsumed++
			return false
		}
		delete(m.sigs, id)
		m.byBug[bug] = slices.DeleteFunc(m.byBug[bug], func(x string) bool { return x == id })
		if mid := merged.ID(); m.sigs[mid] == nil {
			m.put(merged, mid)
		} else {
			m.mutations++ // the merge is stored already: the replace only removes
		}
		m.replaced++
		return false
	}
	id := s.ID()
	if m.sigs[id] != nil {
		return false
	}
	m.put(s, id)
	m.added++
	return true
}

// refPass is the one-at-a-time pass: each entry validated, then
// generalized, before the next. recheck selects OnClassesLoaded's
// accounting over RunStartup's. It returns the report and the positions
// left pending, and counts trimmed signatures.
func refPass(a *agent.Agent, app agent.Application, m *refHistory, entries []repo.Entry, recheck bool, trimmed *int) (agent.Report, []int) {
	p := sig.MergePolicy{MinDepth: sig.MinRemoteOuterDepth}
	var rep agent.Report
	var pending []int
	var nested map[string]struct{}
	if len(entries) > 0 {
		nested = app.NestedSiteKeys()
	}
	for _, e := range entries {
		s, v := a.Validate(e.Sig, nested)
		switch v {
		case agent.VerdictAccepted:
			if frames(s) < frames(e.Sig) {
				*trimmed++
			}
			if m.generalize(s, p) {
				rep.Added++
			} else {
				rep.Merged++
			}
			rep.Accepted++
		case agent.VerdictPendingNesting:
			pending = append(pending, e.Index)
			if !recheck {
				rep.PendingNesting++
			}
		case agent.VerdictRejectedHash:
			rep.RejectedHash++
		case agent.VerdictRejectedDepth:
			rep.RejectedDepth++
		}
	}
	rep.Inspected = len(entries)
	return rep, pending
}

func frames(s *sig.Signature) int {
	n := 0
	for _, th := range s.Threads {
		n += th.Outer.Depth() + th.Inner.Depth()
	}
	return n
}

// sameHistory fails the test unless h holds exactly m's signatures,
// with the same IDs, origins and encodings, after as many mutations.
func sameHistory(t *testing.T, what string, h *dimmunix.History, m *refHistory) {
	t.Helper()
	if got := h.Mutations(); got != m.mutations {
		t.Fatalf("%s: the history saw %d mutations, the one-at-a-time pass %d", what, got, m.mutations)
	}
	got := map[string]string{}
	for _, s := range h.All() {
		data, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got[s.ID()] = s.Origin.String() + " " + string(data)
	}
	want := map[string]string{}
	for id, s := range m.sigs {
		data, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = s.Origin.String() + " " + string(data)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%s: history holds %d signatures, the one-at-a-time pass %d, or their IDs, origins or encodings differ",
			what, len(got), len(want))
	}
}

func entryIndexes(entries []repo.Entry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.Index
	}
	return out
}

// TestParallelPassMatchesSerial: however a pass is split across
// goroutines, RunStartup and OnClassesLoaded give what validating and
// generalizing one signature at a time gives — the same Report, the same
// pending positions and cursor, and a history with the same signatures,
// origins and encodings after as many mutations — for passes of no chunk, part of one, exactly
// one, just over one, and many.
func TestParallelPassMatchesSerial(t *testing.T) {
	f := newPassFixture(t, 3, 2048)
	for _, n := range []int{0, 1, 63, 64, 65, 2048} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("n=%d/procs=%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				a, app, rp, hist := f.newAgent(t, n)
				m := newRefHistory(f.local)
				trimmed := 0
				want, wantPending := refPass(a, app, m, rp.NewSince("app"), false, &trimmed)
				got, err := a.RunStartup()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("startup: report %+v, one at a time %+v", got, want)
				}
				if p := entryIndexes(rp.PendingNesting("app")); !slices.Equal(p, wantPending) {
					t.Fatalf("startup: pending positions %v, one at a time %v", p, wantPending)
				}
				if left := rp.NewSince("app"); len(left) != 0 {
					t.Fatalf("startup: the cursor leaves %d of %d entries uninspected", len(left), n)
				}
				sameHistory(t, "startup", hist, m)

				app.loadClasses()
				want, wantPending = refPass(a, app, m, rp.PendingNesting("app"), true, &trimmed)
				if got, err = a.OnClassesLoaded(); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("recheck: report %+v, one at a time %+v", got, want)
				}
				if p := entryIndexes(rp.PendingNesting("app")); !slices.Equal(p, wantPending) {
					t.Fatalf("recheck: pending positions %v, one at a time %v", p, wantPending)
				}
				sameHistory(t, "recheck", hist, m)

				if n < 2048 {
					return
				}
				if want.Accepted == 0 || got.Inspected == 0 {
					t.Fatalf("the class load accepted nothing: %+v", got)
				}
				for name, count := range map[string]int{
					"added":                                 m.added,
					"merged into a history signature":       m.replaced,
					"subsumed":                              m.subsumed,
					"trimmed":                               trimmed,
					"with threads sharing their top frames": m.sameTops,
					"refused by the depth floor against a shallow local signature": m.floorRefused,
				} {
					if count == 0 {
						t.Errorf("no accepted signature: %s", name)
					}
				}
			})
		}
	}
}

// TestParallelPassVerdicts: the fixture's startup pass reaches every
// verdict.
func TestParallelPassVerdicts(t *testing.T) {
	f := newPassFixture(t, 3, 2048)
	a, _, _, _ := f.newAgent(t, len(f.raw))
	rep, err := a.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added == 0 || rep.Merged == 0 || rep.RejectedHash == 0 || rep.RejectedDepth == 0 || rep.PendingNesting == 0 {
		t.Fatalf("fixture does not reach every verdict: %+v", rep)
	}
}

// BenchmarkRunStartup times the startup pass over a 2,048-signature
// repository of a generated application: ns/op is RunStartup itself,
// with its phases overlapped; prepare-ns/sig and fold-ns/sig time the
// same pass with its phases run one after the other. Run it with -cpu
// 1,2: only the prepare phase runs on more than one core.
func BenchmarkRunStartup(b *testing.B) {
	const n = 2048
	f := newPassFixture(b, 7, n)
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			a, _, _, _ := f.newAgent(b, n)
			b.StartTimer()
			if _, err := a.RunStartup(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
	})
	b.Run("phases", func(b *testing.B) {
		var prep, fold float64
		for range b.N {
			b.StopTimer()
			a, _, _, _ := f.newAgent(b, n)
			b.StartTimer()
			p, fo, rep := a.StartupPhases()
			if rep.Accepted == 0 {
				b.Fatalf("the pass accepted nothing: %+v", rep)
			}
			prep += float64(p.Nanoseconds())
			fold += float64(fo.Nanoseconds())
		}
		b.ReportMetric(prep/float64(b.N*n), "prepare-ns/sig")
		b.ReportMetric(fold/float64(b.N*n), "fold-ns/sig")
	})
}
