package agent

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"communix/internal/dimmunix"
	"communix/internal/repo"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// corpusVocabulary has enough classes that one stale class trims or
// rejects a minority of signatures, and few enough sites that bugs
// collide.
var corpusVocabulary = sigtest.Vocabulary{Classes: 24, Methods: 4, Lines: 12}

// staleClass carries another build's hash in corpusApp: a frame of it
// below a top is trimmed away, a top frame of it rejects the signature.
const staleClass = "com/app/C0"

// corpusApp is an Application over sigtest's hashes: every class of
// corpusVocabulary is loaded and hashes as sigtest stamps it, except
// staleClass.
type corpusApp struct {
	hashes map[string]string
	nested map[string]struct{}
}

func newCorpusApp() *corpusApp {
	c := &corpusApp{hashes: map[string]string{}, nested: map[string]struct{}{}}
	for i := 0; i < corpusVocabulary.Classes; i++ {
		class := fmt.Sprintf("com/app/C%d", i)
		c.hashes[class] = sigtest.HashForClass(class)
	}
	c.hashes[staleClass] = "h-other-build"
	return c
}

func (c *corpusApp) UnitHash(unit string) (string, bool) {
	h, ok := c.hashes[unit]
	return h, ok
}

func (c *corpusApp) NestedSiteKeys() map[string]struct{} {
	out := make(map[string]struct{}, len(c.nested))
	for k := range c.nested {
		out[k] = struct{}{}
	}
	return out
}

// corpus is a seeded repository mix for one application: generalizing
// manifestations, exact duplicates, subsumed (deeper) copies, fresh
// bugs and too-shallow signatures, stale frames that trim stacks or
// reject them, and bugs whose outer sites the application proves nested
// only after a class load.
type corpus struct {
	app    *corpusApp
	local  []*sig.Signature // the history's own signatures before the pass
	remote []json.RawMessage
	// withheld are outer-top keys left out of app.nested until the
	// class load.
	withheld []string
}

func buildCorpus(t testing.TB, seed int64, n int) *corpus {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	v := corpusVocabulary
	c := &corpus{app: newCorpusApp()}
	nest := func(s *sig.Signature, later bool) {
		for _, th := range s.Threads {
			key := th.Outer.Top().Key()
			if later {
				c.withheld = append(c.withheld, key)
			} else {
				c.app.nested[key] = struct{}{}
			}
		}
	}
	bases := make([]*sig.Signature, 1+n/8)
	for i := range bases {
		bases[i] = sigtest.Signature(r, v, 5, 10)
		nest(bases[i], i%5 == 4)
		if i%4 == 0 {
			// Add never merges, so the history can start with two
			// manifestations a remote signature could merge into: the
			// order generalization tries them in decides the result.
			c.local = append(c.local, bases[i], sigtest.Manifestation(r, v, bases[i], 2))
		}
	}
	var sent []*sig.Signature
	for len(sent) < n {
		base := bases[r.Intn(len(bases))]
		var s *sig.Signature
		switch k := r.Intn(10); {
		case k < 4: // another manifestation: generalizes, or shares too few frames to
			s = sigtest.Manifestation(r, v, base, 1+r.Intn(5))
		case k < 5 && len(sent) > 0: // exact duplicate
			s = sent[r.Intn(len(sent))].Clone()
		case k < 6: // subsumed once base is in the history
			s = deeper(r, v, base)
		case k < 7:
			s = base.Clone()
		case k < 9: // a fresh bug
			s = sigtest.Signature(r, v, 5, 10)
			nest(s, false)
		default: // too shallow
			s = sigtest.Signature(r, v, 1, 4)
			nest(s, false)
		}
		sent = append(sent, s)
	}
	for _, s := range sent {
		data, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		c.remote = append(c.remote, data)
	}
	return c
}

// deeper returns base with fresh caller frames below every stack: a
// signature whose merge with base is base itself.
func deeper(r *rand.Rand, v sigtest.Vocabulary, base *sig.Signature) *sig.Signature {
	threads := make([]sig.ThreadSpec, len(base.Threads))
	for i, th := range base.Threads {
		threads[i] = sig.ThreadSpec{
			Outer: append(sigtest.Stack(r, v, 1, 3), th.Outer...),
			Inner: append(sigtest.Stack(r, v, 1, 3), th.Inner...),
		}
	}
	return sig.New(threads...)
}

// newCorpusAgent wires an agent for the corpus over rp and a history
// holding the corpus's local signatures.
func newCorpusAgent(t testing.TB, c *corpus, rp *repo.Repo, appKey string) *Agent {
	t.Helper()
	hist := dimmunix.NewHistory()
	for _, s := range c.local {
		hist.Add(s)
	}
	a, err := New(Config{App: c.app, AppKey: appKey, Repo: rp, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func corpusRepo(t testing.TB, c *corpus) *repo.Repo {
	t.Helper()
	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Append(c.remote, len(c.remote)+1); err != nil {
		t.Fatal(err)
	}
	return rp
}

// loadClasses proves the withheld sites nested, as a class load would.
func (c *corpus) loadClasses() {
	for _, key := range c.withheld {
		c.app.nested[key] = struct{}{}
	}
}

// TestValidationLeavesRepositoryUntouched: the agent reads repository
// signatures in place and the history stores stacks shared with them,
// so no validation, generalization or later history change may write
// to one. Every entry must still encode to the bytes it was appended as.
func TestValidationLeavesRepositoryUntouched(t *testing.T) {
	c := buildCorpus(t, 1, 600)
	rp := corpusRepo(t, c)
	a := newCorpusAgent(t, c, rp, "app")
	hist := a.cfg.History

	trims := 0
	nested := c.app.NestedSiteKeys()
	for _, e := range rp.NewSince("app") {
		if out, v := a.validate(e.Sig, nested); v == VerdictAccepted && frames(out) < frames(e.Sig) {
			trims++
		}
	}
	rep, err := a.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if trims == 0 || rep.Merged == 0 || rep.Added == 0 || rep.RejectedHash == 0 ||
		rep.RejectedDepth == 0 || rep.PendingNesting == 0 {
		t.Fatalf("corpus does not cover every verdict: %+v, %d trimmed", rep, trims)
	}
	c.loadClasses()
	recheck, err := a.OnClassesLoaded()
	if err != nil {
		t.Fatal(err)
	}
	if recheck.Accepted == 0 {
		t.Fatalf("class load accepted nothing: %+v", recheck)
	}
	all := hist.All()
	sort.Slice(all, func(i, j int) bool { return all[i].ID() < all[j].ID() })
	shorter := all[0].Clone()
	shorter.Threads[0].Inner = shorter.Threads[0].Inner.Suffix(1)
	if !hist.Replace(all[0].ID(), shorter) || !hist.Remove(all[1].ID()) {
		t.Fatal("history Replace/Remove changed nothing")
	}
	hist.Index()

	entries := rp.NewSince("unused")
	if len(entries) != len(c.remote) {
		t.Fatalf("repository lists %d entries, appended %d", len(entries), len(c.remote))
	}
	for _, e := range entries {
		data, err := sig.Encode(e.Sig)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(c.remote[e.Index]) {
			t.Fatalf("entry %d was modified:\n got %s\nwant %s", e.Index, data, c.remote[e.Index])
		}
	}
}

// TestAgentsShareRepositoryConcurrently: applications sharing one
// repository read its signatures at once, in place, while the client
// appends; each must end with the history a lone pass builds.
func TestAgentsShareRepositoryConcurrently(t *testing.T) {
	c := buildCorpus(t, 2, 400)
	half := len(c.remote) / 2
	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Append(c.remote[:half], half+1); err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, 3)
	for i := range agents {
		agents[i] = newCorpusAgent(t, c, rp, fmt.Sprintf("app%d", i))
	}
	var wg sync.WaitGroup
	wg.Add(1 + len(agents))
	go func() {
		defer wg.Done()
		if err := rp.Append(c.remote[half:], len(c.remote)+1); err != nil {
			t.Error(err)
		}
	}()
	for _, a := range agents {
		go func(a *Agent) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				if _, err := a.RunStartup(); err != nil {
					t.Error(err)
				}
			}
		}(a)
	}
	wg.Wait()

	lone := newCorpusAgent(t, c, rp, "lone")
	if _, err := lone.RunStartup(); err != nil {
		t.Fatal(err)
	}
	want := historyIDs(lone.cfg.History)
	for i, a := range agents {
		if _, err := a.RunStartup(); err != nil { // whatever the append left
			t.Fatal(err)
		}
		if got := historyIDs(a.cfg.History); !slices.Equal(got, want) {
			t.Errorf("agent %d: %d signatures, lone pass %d, or their IDs differ", i, len(got), len(want))
		}
	}
}

func frames(s *sig.Signature) int {
	n := 0
	for _, th := range s.Threads {
		n += th.Outer.Depth() + th.Inner.Depth()
	}
	return n
}

// installModel is the generalization sequence the agent ran before
// History.Generalize: list the same-bug candidates, merge with each in
// turn, and Replace the first mergeable one unless the merge hashes to
// it, else Add. The history's bug index listed candidates in insertion
// order (removals kept the rest in order); byBug mirrors it.
type installModel struct {
	h      *dimmunix.History
	policy sig.MergePolicy
	byBug  map[string][]string
	// Outcome tallies, so the test can check the corpora reach every
	// branch.
	subsumed, replaced, refused int
}

func (m *installModel) add(s *sig.Signature) bool {
	if !m.h.Add(s) {
		return false
	}
	key := s.BugKey()
	m.byBug[key] = append(m.byBug[key], s.ID())
	return true
}

func (m *installModel) install(s *sig.Signature, rep *Report) {
	key := s.BugKey()
	for _, id := range slices.Clone(m.byBug[key]) {
		merged, ok := m.policy.Merge(m.h.Get(id), s)
		if !ok {
			m.refused++
			continue
		}
		mid := merged.ID()
		if mid == id {
			m.subsumed++
			rep.Merged++
			return
		}
		fresh := m.h.Get(mid) == nil
		if m.h.Replace(id, merged) {
			m.byBug[key] = slices.DeleteFunc(m.byBug[key], func(x string) bool { return x == id })
			if fresh {
				m.byBug[key] = append(m.byBug[key], mid)
			}
			m.replaced++
			rep.Merged++
			return
		}
	}
	if m.add(s) {
		rep.Added++
	} else {
		rep.Merged++ // identical signature already present
	}
}

// startup is RunStartup over the model; it returns the pending entries
// for recheck.
func (m *installModel) startup(a *Agent, entries []repo.Entry) (Report, []repo.Entry) {
	nested := a.nestedSites(entries)
	var rep Report
	var pending []repo.Entry
	for _, e := range entries {
		trimmed, verdict := a.validate(e.Sig, nested)
		switch verdict {
		case VerdictAccepted:
			m.install(trimmed, &rep)
			rep.Accepted++
		case VerdictPendingNesting:
			rep.PendingNesting++
			pending = append(pending, e)
		default:
			countRejection(verdict, &rep)
		}
	}
	rep.Inspected = len(entries)
	return rep, pending
}

// recheck is OnClassesLoaded over the model.
func (m *installModel) recheck(a *Agent, entries []repo.Entry) Report {
	nested := a.nestedSites(entries)
	var rep Report
	for _, e := range entries {
		trimmed, verdict := a.validate(e.Sig, nested)
		switch verdict {
		case VerdictPendingNesting:
		case VerdictAccepted:
			m.install(trimmed, &rep)
			rep.Accepted++
		default:
			countRejection(verdict, &rep)
		}
	}
	rep.Inspected = len(entries)
	return rep
}

func historyIDs(h *dimmunix.History) []string {
	var ids []string
	for _, s := range h.All() {
		ids = append(ids, s.ID())
	}
	sort.Strings(ids)
	return ids
}

// TestGeneralizeMatchesInstallModel is the differential test of
// History.Generalize against the sequence it replaced, over seeded
// corpora: both must give the same Report on the startup pass and on the
// class-load recheck, and leave the same signatures at the same version.
func TestGeneralizeMatchesInstallModel(t *testing.T) {
	var total installModel
	for seed := int64(1); seed <= 12; seed++ {
		c := buildCorpus(t, seed, 300)
		rp := corpusRepo(t, c)
		a := newCorpusAgent(t, c, rp, "app")
		model := newCorpusAgent(t, c, rp, "model")
		m := &installModel{h: model.cfg.History, policy: model.policy, byBug: map[string][]string{}}
		for _, s := range c.local { // as newCorpusAgent added them
			if key, id := s.BugKey(), s.ID(); !slices.Contains(m.byBug[key], id) {
				m.byBug[key] = append(m.byBug[key], id)
			}
		}
		check := func(pass string, got, want Report) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d %s: report %+v, model %+v", seed, pass, got, want)
			}
			if g, w := historyIDs(a.cfg.History), historyIDs(m.h); !slices.Equal(g, w) {
				t.Fatalf("seed %d %s: history holds %d signatures, model %d, or their IDs differ", seed, pass, len(g), len(w))
			}
			if g, w := a.cfg.History.Version(), m.h.Version(); g != w {
				t.Fatalf("seed %d %s: history version %d, model %d", seed, pass, g, w)
			}
		}

		got, err := a.RunStartup()
		if err != nil {
			t.Fatal(err)
		}
		want, pending := m.startup(model, rp.NewSince("model"))
		check("startup", got, want)

		c.loadClasses()
		if got, err = a.OnClassesLoaded(); err != nil {
			t.Fatal(err)
		}
		check("recheck", got, m.recheck(model, pending))

		total.subsumed += m.subsumed
		total.replaced += m.replaced
		total.refused += m.refused
	}
	if total.subsumed == 0 || total.replaced == 0 || total.refused == 0 {
		t.Fatalf("corpora never reached a branch: %d subsumed, %d replaced, %d merges refused",
			total.subsumed, total.replaced, total.refused)
	}
	t.Logf("%d subsumed, %d replaced, %d merges refused", total.subsumed, total.replaced, total.refused)
}
