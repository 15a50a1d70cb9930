package bytecode

import (
	"sort"

	"communix/internal/sig"
)

// SiteKind distinguishes synchronized blocks from synchronized methods.
type SiteKind uint8

// Site kinds.
const (
	// SiteBlock is a monitorenter statement of a synchronized block.
	SiteBlock SiteKind = iota + 1
	// SiteMethod is a synchronized method (semantically a
	// synchronized(this) block wrapping the body, §III-C3).
	SiteMethod
)

// String names the kind.
func (k SiteKind) String() string {
	if k == SiteMethod {
		return "method"
	}
	return "block"
}

// SyncSite is one synchronized block or method occurrence.
type SyncSite struct {
	Class  string
	Method string
	Line   int // the lock statement's line (method start line for SiteMethod)
	Kind   SiteKind
	// Analyzed is false when the enclosing method is Opaque — the static
	// framework could not retrieve its CFG, as happened to 46–89% of sites
	// in the paper's Table I.
	Analyzed bool
	// Nested is meaningful only when Analyzed: whether the §III-C3 walk
	// proves the site nested.
	Nested bool
}

// Key returns the site's frame key ("class.method:line"), the identity the
// agent compares signature top frames against.
func (s SyncSite) Key() string {
	return sig.Frame{Class: s.Class, Method: s.Method, Line: s.Line}.Key()
}

// Stats aggregates what Table I reports per application.
type Stats struct {
	LOC         int
	SyncSites   int // synchronized blocks + methods
	ExplicitOps int // ReentrantLock.lock/unlock call sites
	Analyzed    int // sites whose enclosing method had a CFG
	Nested      int // analyzed sites proved nested
}

// Analysis is the result of the static nesting analysis over one app.
type Analysis struct {
	App   *App
	Sites []SyncSite

	nestedKeys map[string]struct{}
	maySync    map[MethodRef]bool
}

// Analyze runs the §III-C3 nesting analysis over every synchronized block
// and method of the app. The Communix agent runs this at shutdown on the
// application's first run and re-runs it when new classes load.
func Analyze(app *App) *Analysis {
	return analyzeClasses(app, app.Classes)
}

// analyzeClasses runs the analysis restricted to the given classes but
// resolves calls against the whole app (matching the agent, which extends
// the CFG as classes load).
func analyzeClasses(app *App, classes []*Class) *Analysis {
	a := &Analysis{
		App:        app,
		nestedKeys: make(map[string]struct{}),
		maySync:    computeMaySync(app),
	}
	for _, c := range classes {
		for _, m := range c.Methods {
			a.collectSites(m)
		}
	}
	sort.Slice(a.Sites, func(i, j int) bool {
		si, sj := a.Sites[i], a.Sites[j]
		if si.Class != sj.Class {
			return si.Class < sj.Class
		}
		if si.Method != sj.Method {
			return si.Method < sj.Method
		}
		return si.Line < sj.Line
	})
	return a
}

// collectSites finds the sync sites of one method and, when the method is
// analyzable, classifies each as nested or not.
func (a *Analysis) collectSites(m *Method) {
	if m.Synchronized {
		site := SyncSite{
			Class: m.Class, Method: m.Name, Line: m.StartLine,
			Kind: SiteMethod, Analyzed: !m.Opaque,
		}
		if site.Analyzed {
			// A synchronized method desugars to a synchronized(this) block
			// around the body: walk from the first instruction; OpReturn
			// plays the role of the implicit monitorexit.
			site.Nested = a.walk(m, 0)
			if site.Nested {
				a.nestedKeys[site.Key()] = struct{}{}
			}
		}
		a.Sites = append(a.Sites, site)
	}
	for pc, ins := range m.Code {
		if ins.Op != OpMonitorEnter {
			continue
		}
		site := SyncSite{
			Class: m.Class, Method: m.Name, Line: ins.Line,
			Kind: SiteBlock, Analyzed: !m.Opaque,
		}
		if site.Analyzed {
			site.Nested = a.walk(m, pc+1)
			if site.Nested {
				a.nestedKeys[site.Key()] = struct{}{}
			}
		}
		a.Sites = append(a.Sites, site)
	}
}

// walk implements the §III-C3 CFG inspection: starting from pc, explore
// successors; a monitorenter proves the block nested; a monitorexit (or,
// for synchronized methods, a return) closes the block along that path; a
// call is nesting if any method it may (transitively) reach is
// synchronized or contains a synchronized block. The block is nested if
// any path proves it so.
func (a *Analysis) walk(m *Method, start int) bool {
	n := len(m.Code)
	if start >= n {
		return false
	}
	visited := make([]bool, n)
	stack := make([]int, 0, 8)
	stack = append(stack, start)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc < 0 || pc >= n || visited[pc] {
			continue
		}
		visited[pc] = true
		ins := m.Code[pc]
		switch ins.Op {
		case OpMonitorEnter:
			return true
		case OpMonitorExit:
			continue // this path's closing exit: not nested along it
		case OpReturn:
			continue // implicit exit for synchronized methods; path ends
		case OpInvoke:
			if a.calleeMaySync(ins.Callee) {
				return true
			}
			stack = append(stack, pc+1)
		case OpGoto:
			stack = append(stack, ins.Arg)
		case OpBranch:
			stack = append(stack, pc+1, ins.Arg)
		default:
			stack = append(stack, pc+1)
		}
	}
	return false
}

// calleeMaySync reports whether the callee provably leads to a
// synchronized block or method. Unknown targets and opaque callees do not
// prove nesting: the precomputed nested-site set must stay sound with
// respect to the §III-C1 attacker bound (at most one accepted signature
// per provably nested site).
func (a *Analysis) calleeMaySync(ref MethodRef) bool {
	return a.maySync[ref]
}

// computeMaySync runs a fixpoint over the call graph: a method "may sync"
// if it is synchronized, contains a monitorenter, or invokes (directly or
// indirectly) a method that may sync. Opaque methods contribute nothing:
// their bodies are invisible to the framework.
func computeMaySync(app *App) map[MethodRef]bool {
	may := make(map[MethodRef]bool, len(app.methods))
	// Seed: direct evidence.
	for ref, m := range app.methods {
		if m.Opaque {
			continue
		}
		if m.Synchronized {
			may[ref] = true
			continue
		}
		for _, ins := range m.Code {
			if ins.Op == OpMonitorEnter {
				may[ref] = true
				break
			}
		}
	}
	// Reverse call edges.
	callers := make(map[MethodRef][]MethodRef)
	for ref, m := range app.methods {
		if m.Opaque {
			continue
		}
		for _, ins := range m.Code {
			if ins.Op == OpInvoke {
				callers[ins.Callee] = append(callers[ins.Callee], ref)
			}
		}
	}
	// Propagate.
	queue := make([]MethodRef, 0, len(may))
	for ref := range may {
		queue = append(queue, ref)
	}
	for len(queue) > 0 {
		ref := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, caller := range callers[ref] {
			if !may[caller] {
				may[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return may
}

// NestedSiteKeys returns the frame keys of all sites proved nested — the
// precomputed set the agent checks signature top frames against. It is
// the analysis's own set, not a copy: an Analysis never changes once
// built (a View swaps in a new one), so the set is read-only and callers
// must not modify it.
func (a *Analysis) NestedSiteKeys() map[string]struct{} { return a.nestedKeys }

// IsNested reports whether the frame key denotes a proved-nested site.
func (a *Analysis) IsNested(frameKey string) bool {
	_, ok := a.nestedKeys[frameKey]
	return ok
}

// Stats aggregates the Table I quantities for this analysis.
func (a *Analysis) Stats() Stats {
	st := Stats{LOC: a.App.LOC()}
	for _, s := range a.Sites {
		st.SyncSites++
		if s.Analyzed {
			st.Analyzed++
			if s.Nested {
				st.Nested++
			}
		}
	}
	for _, c := range a.App.Classes {
		for _, m := range c.Methods {
			for _, ins := range m.Code {
				if ins.Op == OpExplicitLock || ins.Op == OpExplicitUnlock {
					st.ExplicitOps++
				}
			}
		}
	}
	return st
}
