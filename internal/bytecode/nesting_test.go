package bytecode

import (
	"testing"

	"communix/internal/sig"
)

// buildApp is a test helper assembling an app from classes, failing the
// test on structural errors.
func buildApp(t *testing.T, classes ...*Class) *App {
	t.Helper()
	app, err := NewApp("test", classes)
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	return app
}

func ret(line int) Instr   { return Instr{Op: OpReturn, Line: line} }
func work(line int) Instr  { return Instr{Op: OpWork, Line: line} }
func enter(line int) Instr { return Instr{Op: OpMonitorEnter, Line: line} }
func exit(line int) Instr  { return Instr{Op: OpMonitorExit, Line: line} }
func invoke(c, m string, line int) Instr {
	return Instr{Op: OpInvoke, Callee: MethodRef{Class: c, Method: m}, Line: line}
}

// siteByLine finds the analyzed site at the given line.
func siteByLine(t *testing.T, a *Analysis, line int) SyncSite {
	t.Helper()
	for _, s := range a.Sites {
		if s.Line == line {
			return s
		}
	}
	t.Fatalf("no site at line %d; sites: %+v", line, a.Sites)
	return SyncSite{}
}

func TestNestingDirectInnerEnter(t *testing.T) {
	// synchronized(a){ synchronized(b){} }
	m := &Method{Name: "m", Code: []Instr{
		enter(10), work(11), enter(12), work(13), exit(14), exit(15), ret(16),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)

	if got := siteByLine(t, a, 10); !got.Nested || !got.Analyzed {
		t.Errorf("outer site = %+v, want nested+analyzed", got)
	}
	if got := siteByLine(t, a, 12); got.Nested {
		t.Errorf("inner site = %+v, want non-nested", got)
	}
	if st := a.Stats(); st.SyncSites != 2 || st.Analyzed != 2 || st.Nested != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNestingPlainBlockNotNested(t *testing.T) {
	m := &Method{Name: "m", Code: []Instr{
		work(9), enter(10), work(11), work(12), exit(13), ret(14),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); got.Nested {
		t.Errorf("plain block reported nested: %+v", got)
	}
}

func TestNestingThroughDirectCall(t *testing.T) {
	helper := &Method{Name: "helper", Code: []Instr{
		enter(30), work(31), exit(32), ret(33),
	}}
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("C", "helper", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, helper}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); !got.Nested {
		t.Error("block calling a synchronizing helper should be nested")
	}
}

func TestNestingThroughTransitiveCall(t *testing.T) {
	// m -> a -> b -> syncLeaf
	syncLeaf := &Method{Name: "leaf", Synchronized: true, StartLine: 50, Code: []Instr{work(51), ret(52)}}
	b := &Method{Name: "b", Code: []Instr{invoke("C", "leaf", 40), ret(41)}}
	aM := &Method{Name: "a", Code: []Instr{invoke("C", "b", 35), ret(36)}}
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("C", "a", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, aM, b, syncLeaf}})
	an := Analyze(app)
	if got := siteByLine(t, an, 10); !got.Nested {
		t.Error("nesting through a 3-deep call chain should be detected")
	}
	// The synchronized leaf is itself a (method) site, non-nested.
	if got := siteByLine(t, an, 50); got.Kind != SiteMethod || got.Nested {
		t.Errorf("leaf site = %+v, want non-nested method site", got)
	}
}

func TestNestingCallToPureHelperIsNotNested(t *testing.T) {
	pure := &Method{Name: "pure", Code: []Instr{work(30), ret(31)}}
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("C", "pure", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, pure}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); got.Nested {
		t.Error("calling a lock-free helper must not make the block nested")
	}
}

func TestNestingRecursionTerminates(t *testing.T) {
	// Mutually recursive lock-free methods must not hang the fixpoint or
	// the walk.
	f := &Method{Name: "f", Code: []Instr{invoke("C", "g", 20), ret(21)}}
	g := &Method{Name: "g", Code: []Instr{invoke("C", "f", 25), ret(26)}}
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("C", "f", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, f, g}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); got.Nested {
		t.Error("recursive lock-free helpers must not prove nesting")
	}
}

func TestNestingRecursiveSyncDetected(t *testing.T) {
	f := &Method{Name: "f", Code: []Instr{invoke("C", "g", 20), ret(21)}}
	g := &Method{Name: "g", Code: []Instr{invoke("C", "f", 24), enter(25), exit(26), ret(27)}}
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("C", "f", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, f, g}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); !got.Nested {
		t.Error("sync reachable through recursion should prove nesting")
	}
}

func TestNestingSynchronizedMethodDesugaring(t *testing.T) {
	// synchronized void m() { synchronized(x){} } — the method site is
	// nested; the block site is not.
	m := &Method{Name: "m", Synchronized: true, StartLine: 5, Code: []Instr{
		work(6), enter(7), exit(8), ret(9),
	}}
	plain := &Method{Name: "p", Synchronized: true, StartLine: 20, Code: []Instr{work(21), ret(22)}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, plain}})
	a := Analyze(app)
	if got := siteByLine(t, a, 5); !got.Nested || got.Kind != SiteMethod {
		t.Errorf("sync method with inner block = %+v, want nested method site", got)
	}
	if got := siteByLine(t, a, 20); got.Nested {
		t.Errorf("plain sync method = %+v, want non-nested", got)
	}
}

func TestNestingBranchPaths(t *testing.T) {
	// enter; if(..) { synchronized inner } ; exit — nested via one branch.
	m := &Method{Name: "m", Code: []Instr{
		enter(10),                        // 0
		{Op: OpBranch, Arg: 4, Line: 11}, // 1: skip inner on one path
		enter(12),                        // 2
		exit(13),                         // 3
		exit(14),                         // 4
		ret(15),                          // 5
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); !got.Nested {
		t.Error("nesting on one branch path should be detected")
	}
}

func TestNestingGotoLoopTerminates(t *testing.T) {
	m := &Method{Name: "m", Code: []Instr{
		enter(10),                        // 0
		work(11),                         // 1
		{Op: OpBranch, Arg: 1, Line: 12}, // 2: loop back
		exit(13),                         // 3
		ret(14),                          // 4
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); got.Nested {
		t.Error("loop without inner sync must not be nested")
	}
}

func TestNestingOpaqueMethodNotAnalyzed(t *testing.T) {
	m := &Method{Name: "m", Opaque: true, Code: []Instr{
		enter(10), enter(11), exit(12), exit(13), ret(14),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)
	got := siteByLine(t, a, 10)
	if got.Analyzed {
		t.Error("sites in opaque methods must be unanalyzed")
	}
	if a.IsNested(got.Key()) {
		t.Error("unanalyzed sites must not enter the nested set")
	}
	st := a.Stats()
	if st.SyncSites != 2 || st.Analyzed != 0 || st.Nested != 0 {
		t.Errorf("stats = %+v, want 2 sites, 0 analyzed", st)
	}
}

func TestNestingOpaqueCalleeDoesNotProveNesting(t *testing.T) {
	// The callee actually synchronizes, but its CFG is unavailable; the
	// analysis must stay sound w.r.t. the attacker bound and not claim
	// nesting it cannot prove.
	opaque := &Method{Name: "op", Opaque: true, Code: []Instr{enter(30), exit(31), ret(32)}}
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("C", "op", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m, opaque}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); got.Nested {
		t.Error("opaque callee must not prove nesting")
	}
}

func TestNestingUnknownCalleeIgnored(t *testing.T) {
	m := &Method{Name: "m", Code: []Instr{
		enter(10), invoke("Missing", "gone", 11), exit(12), ret(13),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)
	if got := siteByLine(t, a, 10); got.Nested {
		t.Error("unknown callee must not prove nesting")
	}
}

func TestNestedSiteKeysMatchFrameKeys(t *testing.T) {
	m := &Method{Name: "m", Code: []Instr{
		enter(10), enter(12), exit(14), exit(15), ret(16),
	}}
	app := buildApp(t, &Class{Name: "C", Methods: []*Method{m}})
	a := Analyze(app)
	keys := a.NestedSiteKeys()
	want := sig.Frame{Class: "C", Method: "m", Line: 10}.Key()
	if _, ok := keys[want]; !ok {
		t.Errorf("nested keys %v missing %q", keys, want)
	}
	if len(keys) != 1 {
		t.Errorf("nested keys = %v, want exactly 1", keys)
	}
}

// TestNestedSiteKeysDoesNotCopy: reading the nested-site set costs the
// same whatever its size — the analysis hands out its own set, and a
// View its current analysis's.
func TestNestedSiteKeysDoesNotCopy(t *testing.T) {
	app, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(app)
	v := NewView(app)
	for _, c := range app.Classes {
		if err := v.Load(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(v.NestedSiteKeys()); n < 10 || n != len(a.NestedSiteKeys()) {
		t.Fatalf("nested sets hold %d (view) and %d (analysis), want equal and at least 10", n, len(a.NestedSiteKeys()))
	}
	for name, read := range map[string]func() map[string]struct{}{
		"analysis": a.NestedSiteKeys,
		"view":     v.NestedSiteKeys,
	} {
		if allocs := testing.AllocsPerRun(100, func() { _ = read() }); allocs != 0 {
			t.Errorf("%s: NestedSiteKeys allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

func TestMethodValidate(t *testing.T) {
	bad := &Method{Name: "m", Code: []Instr{{Op: OpGoto, Arg: 99}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range jump should fail validation")
	}
	noTerm := &Method{Name: "m", Code: []Instr{work(1)}}
	if err := noTerm.Validate(); err == nil {
		t.Error("method falling off the end should fail validation")
	}
	ok := &Method{Name: "m", Code: []Instr{work(1), ret(2)}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid method rejected: %v", err)
	}
}

func TestNewAppRejectsDuplicates(t *testing.T) {
	c1 := &Class{Name: "C", Methods: []*Method{{Name: "m", Code: []Instr{ret(1)}}}}
	c2 := &Class{Name: "C"}
	if _, err := NewApp("a", []*Class{c1, c2}); err == nil {
		t.Error("duplicate class names should be rejected")
	}
	dup := &Class{Name: "D", Methods: []*Method{
		{Name: "m", Code: []Instr{ret(1)}},
		{Name: "m", Code: []Instr{ret(2)}},
	}}
	if _, err := NewApp("a", []*Class{dup}); err == nil {
		t.Error("duplicate method names should be rejected")
	}
}

func TestClassHashChangesWithContent(t *testing.T) {
	mk := func(line int) *Class {
		return &Class{Name: "C", Methods: []*Method{
			{Name: "m", Class: "C", Code: []Instr{work(line), ret(line + 1)}},
		}}
	}
	a, b := mk(1), mk(1)
	if a.Hash() != b.Hash() {
		t.Error("identical classes must hash equal")
	}
	c := mk(2)
	if a.Hash() == c.Hash() {
		t.Error("different line numbers must change the hash")
	}
	d := mk(1)
	d.Methods[0].Synchronized = true
	if a.Hash() == d.Hash() {
		t.Error("synchronized flag must change the hash")
	}
}
