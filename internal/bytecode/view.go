package bytecode

import (
	"fmt"
	"sort"
	"sync"
)

// View is the running application as the Communix agent sees it: the set
// of classes loaded so far, their hashes (computed once per class on first
// load, §III-C3), and the nesting analysis over the loaded portion. New
// classes can only uncover new nested sites (the paper's monotonicity
// argument), so re-analysis after loading grows the nested set.
//
// View is safe for concurrent use.
type View struct {
	app *App

	mu       sync.RWMutex
	loaded   map[string]bool
	hashes   map[string]string
	analysis *Analysis
	// analyses counts how many times the nesting analysis ran (first run
	// plus once per load batch that added classes) — Fig. 4's agent cost
	// depends on it.
	analyses int
}

// NewView returns a view with no classes loaded.
func NewView(app *App) *View {
	return &View{
		app:    app,
		loaded: make(map[string]bool, len(app.Classes)),
		hashes: make(map[string]string, len(app.Classes)),
	}
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
	added := false
	for _, name := range classNames {
		if v.loaded[name] {
			continue
		}
		v.loaded[name] = true
		v.hashes[name] = v.app.Class(name).Hash()
		added = true
	}
	if added {
		v.reanalyzeLocked()
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

// reanalyzeLocked rebuilds the analysis over the loaded classes. Calls
// into unloaded classes resolve to nothing, so nesting evidence is limited
// to what is loaded — exactly the paper's incremental behaviour.
func (v *View) reanalyzeLocked() {
	classes := make([]*Class, 0, len(v.loaded))
	for _, c := range v.app.Classes {
		if v.loaded[c.Name] {
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
	v.analysis = analyzeClasses(sub, classes)
	v.analyses++
}

// UnitHash returns the hash of a loaded class; ok is false when the class
// is not loaded (or unknown).
func (v *View) UnitHash(class string) (hash string, ok bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	h, ok := v.hashes[class]
	return h, ok
}

// NestedSiteKeys returns the frame keys of sites proved nested within the
// loaded portion of the application: the current analysis's own set,
// read-only (see Analysis.NestedSiteKeys). A later Load swaps in a new
// set and leaves this one as it is.
func (v *View) NestedSiteKeys() map[string]struct{} {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.analysis == nil {
		return map[string]struct{}{}
	}
	return v.analysis.NestedSiteKeys()
}

// LoadedCount returns how many classes are loaded.
func (v *View) LoadedCount() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.loaded)
}

// AnalysisRuns returns how many times the nesting analysis has run.
func (v *View) AnalysisRuns() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.analyses
}

// LoadedClassNames returns the loaded class names in sorted order.
func (v *View) LoadedClassNames() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	names := make([]string, 0, len(v.loaded))
	for n := range v.loaded {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
