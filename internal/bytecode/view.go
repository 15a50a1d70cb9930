package bytecode

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// View is the running application as the Communix agent sees it: the set
// of classes loaded so far, their hashes (computed once per class on first
// load, §III-C3), and the nesting analysis over the loaded portion. New
// classes can only uncover new nested sites (the paper's monotonicity
// argument), so re-analysis after loading grows the nested set.
//
// View is safe for concurrent use. Readers take no lock: every Load
// publishes a new immutable snapshot (hashes and analysis) with one
// atomic store, and each read sees the latest one, so the agent's
// validation pass can hash-check frames on every core at once.
type View struct {
	app *App

	mu   sync.Mutex // serializes Load
	snap atomic.Pointer[viewSnapshot]
}

// viewSnapshot is one published state of a View. Nothing writes to it
// once it is published.
type viewSnapshot struct {
	hashes   map[string]string // loaded class -> hash
	analysis *Analysis         // nil before the first Load
	// analyses counts how many times the nesting analysis ran (first run
	// plus once per load batch that added classes) — Fig. 4's agent cost
	// depends on it.
	analyses int
}

// NewView returns a view with no classes loaded.
func NewView(app *App) *View {
	v := &View{app: app}
	v.snap.Store(&viewSnapshot{hashes: map[string]string{}})
	return v
}

// App returns the underlying application.
func (v *View) App() *App { return v.app }

// Load marks classes as loaded, computing their hashes, and re-runs the
// nesting analysis if anything new arrived. Unknown class names are an
// error; nothing is loaded in that case.
func (v *View) Load(classNames ...string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, name := range classNames {
		if v.app.Class(name) == nil {
			return fmt.Errorf("view %s: unknown class %q", v.app.Name, name)
		}
	}
	old := v.snap.Load()
	var hashes map[string]string
	for _, name := range classNames {
		if _, ok := old.hashes[name]; ok {
			continue
		}
		if hashes == nil {
			hashes = maps.Clone(old.hashes)
		}
		hashes[name] = v.app.Class(name).Hash()
	}
	if hashes != nil {
		v.snap.Store(&viewSnapshot{hashes: hashes, analysis: v.analyze(hashes), analyses: old.analyses + 1})
	}
	return nil
}

// LoadAll loads every class of the application.
func (v *View) LoadAll() {
	names := make([]string, 0, len(v.app.Classes))
	for _, c := range v.app.Classes {
		names = append(names, c.Name)
	}
	// Ignore the error: names came from the app itself.
	_ = v.Load(names...)
}

// analyze runs the analysis over the loaded classes. Calls into unloaded
// classes resolve to nothing, so nesting evidence is limited to what is
// loaded — exactly the paper's incremental behaviour.
func (v *View) analyze(loaded map[string]string) *Analysis {
	classes := make([]*Class, 0, len(loaded))
	for _, c := range v.app.Classes {
		if _, ok := loaded[c.Name]; ok {
			classes = append(classes, c)
		}
	}
	sub := &App{
		Name:        v.app.Name,
		Classes:     classes,
		classByName: make(map[string]*Class, len(classes)),
		methods:     make(map[MethodRef]*Method),
	}
	for _, c := range classes {
		sub.classByName[c.Name] = c
		for _, m := range c.Methods {
			sub.methods[m.Ref()] = m
		}
	}
	return analyzeClasses(sub, classes)
}

// UnitHash returns the hash of a loaded class; ok is false when the class
// is not loaded (or unknown).
func (v *View) UnitHash(class string) (hash string, ok bool) {
	h, ok := v.snap.Load().hashes[class]
	return h, ok
}

// NestedSiteKeys returns the frame keys of sites proved nested within the
// loaded portion of the application: the current analysis's own set,
// read-only (see Analysis.NestedSiteKeys). A later Load swaps in a new
// set and leaves this one as it is.
func (v *View) NestedSiteKeys() map[string]struct{} {
	if a := v.snap.Load().analysis; a != nil {
		return a.NestedSiteKeys()
	}
	return map[string]struct{}{}
}

// LoadedCount returns how many classes are loaded.
func (v *View) LoadedCount() int { return len(v.snap.Load().hashes) }

// AnalysisRuns returns how many times the nesting analysis has run.
func (v *View) AnalysisRuns() int { return v.snap.Load().analyses }

// LoadedClassNames returns the loaded class names in sorted order.
func (v *View) LoadedClassNames() []string {
	return slices.Sorted(maps.Keys(v.snap.Load().hashes))
}
