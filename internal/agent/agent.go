// Package agent implements the Communix agent (§III-A, §III-C3, §III-D):
// the component that runs inside a Java application's address space —
// here, alongside a dimmunix.Runtime — and, at application startup,
// selects from the local repository the new signatures valid for the
// running application, then generalizes them into the deadlock history.
//
// Validation is three checks, in order:
//
//  1. Hash check: every call stack's per-frame code-unit hashes are
//     compared against the running application from the top frame
//     downward; a top-frame mismatch rejects the signature, a lower
//     mismatch trims the stack to its longest matching suffix. Inner
//     stacks are checked too (a fixed deadlock in a newer version must
//     invalidate the signature).
//  2. Depth check: outer stacks shallower than MinOuterDepth (5) are
//     rejected — shallow outer stacks over-serialize and are the lever of
//     the §III-C1 slowdown attack.
//  3. Nesting check: every outer stack must end in a statement the static
//     analysis proved to be a nested synchronized block/method; this
//     bounds what an attacker can force into the history to one signature
//     per nested site. Signatures that fail only this check are parked
//     and re-checked when new classes load (new classes can only uncover
//     new nested sites).
package agent

import (
	"errors"
	"fmt"

	"communix/internal/chunk"
	"communix/internal/dimmunix"
	"communix/internal/repo"
	"communix/internal/sig"
)

// Application is the agent's view of the running program: per-code-unit
// hashes for loaded units, and the precomputed nested-site set.
// bytecode.View implements it for modelled applications. A pass calls
// UnitHash from several goroutines at once.
type Application interface {
	// UnitHash returns the hash of a loaded code unit; ok is false when
	// the unit is not loaded.
	UnitHash(unit string) (hash string, ok bool)
	// NestedSiteKeys returns the frame keys of sites proved to be nested
	// synchronized blocks/methods. The agent only reads the set.
	NestedSiteKeys() map[string]struct{}
}

// Verdict classifies one inspected signature.
type Verdict int

// Verdicts.
const (
	// VerdictAccepted: validated and installed (added or merged).
	VerdictAccepted Verdict = iota + 1
	// VerdictRejectedHash: a top-frame hash did not match the
	// application.
	VerdictRejectedHash
	// VerdictRejectedDepth: an outer stack was shallower than the floor
	// after trimming.
	VerdictRejectedDepth
	// VerdictPendingNesting: hashes matched but some outer stack does not
	// end in a known nested sync site; re-checked when new classes load.
	VerdictPendingNesting
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAccepted:
		return "accepted"
	case VerdictRejectedHash:
		return "rejected-hash"
	case VerdictRejectedDepth:
		return "rejected-depth"
	case VerdictPendingNesting:
		return "pending-nesting"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Report aggregates one inspection pass.
type Report struct {
	Inspected      int
	Accepted       int
	Merged         int // accepted by merging into an existing signature
	Added          int // accepted as a new history entry
	RejectedHash   int
	RejectedDepth  int
	PendingNesting int
}

// Config parameterizes an Agent.
type Config struct {
	// App is the running application's view. Required.
	App Application
	// AppKey identifies the application in the repository's per-app
	// cursors (e.g. the application name). Required.
	AppKey string
	// Repo is the local signature repository. Required.
	Repo *repo.Repo
	// History is the application's deadlock history. Required.
	History *dimmunix.History
	// MinOuterDepth overrides the depth floor (default
	// sig.MinRemoteOuterDepth = 5).
	MinOuterDepth int
}

// Agent validates and generalizes repository signatures for one
// application.
type Agent struct {
	cfg    Config
	policy sig.MergePolicy
}

// New builds an agent.
func New(cfg Config) (*Agent, error) {
	switch {
	case cfg.App == nil:
		return nil, errors.New("agent: App is required")
	case cfg.AppKey == "":
		return nil, errors.New("agent: AppKey is required")
	case cfg.Repo == nil:
		return nil, errors.New("agent: Repo is required")
	case cfg.History == nil:
		return nil, errors.New("agent: History is required")
	}
	if cfg.MinOuterDepth <= 0 {
		cfg.MinOuterDepth = sig.MinRemoteOuterDepth
	}
	return &Agent{cfg: cfg, policy: sig.MergePolicy{MinDepth: cfg.MinOuterDepth}}, nil
}

// RunStartup performs the startup pass: inspect every repository
// signature not yet seen by this application, validate, and generalize
// the accepted ones into the history. Inspection is incremental — each
// signature is analyzed once (§III-B).
func (a *Agent) RunStartup() (Report, error) {
	entries := a.cfg.Repo.NewSince(a.cfg.AppKey)
	var rep Report
	var pending []int
	through := 0
	for i, v := range a.pass(entries, &rep) {
		if v == VerdictPendingNesting {
			rep.PendingNesting++
			pending = append(pending, entries[i].Index)
		}
		countRejection(v, &rep)
		through = max(through, entries[i].Index+1)
	}
	rep.Inspected = len(entries)
	if err := a.cfg.Repo.MarkInspected(a.cfg.AppKey, through, pending); err != nil {
		return rep, fmt.Errorf("agent: startup: %w", err)
	}
	return rep, nil
}

// OnClassesLoaded re-checks the signatures that previously passed the
// hash check but failed the nesting check (§III-C3: loading classes can
// only uncover new nested sites, so only those signatures need another
// look).
func (a *Agent) OnClassesLoaded() (Report, error) {
	entries := a.cfg.Repo.PendingNesting(a.cfg.AppKey)
	var rep Report
	var resolved []int
	for i, v := range a.pass(entries, &rep) {
		if v == VerdictPendingNesting {
			continue // still unproven; keep pending
		}
		// Accepted, or hash or depth regressed (e.g. site went out of
		// scope): count and drop.
		resolved = append(resolved, entries[i].Index)
		countRejection(v, &rep)
	}
	rep.Inspected = len(entries)
	if err := a.cfg.Repo.ResolvePending(a.cfg.AppKey, resolved); err != nil {
		return rep, fmt.Errorf("agent: class-load recheck: %w", err)
	}
	return rep, nil
}

// pass is the validation pass both entry points share. Validating one
// signature depends only on it and the application, so the entries are
// prepared — validated, and given their bug hashes — on up to GOMAXPROCS
// goroutines; generalizing depends on the history's contents, so the
// accepted ones are folded into the history in repository order, one
// chunk per history lock hold, each as soon as it and every chunk before
// it are prepared (chunk.Run). It returns each entry's verdict and
// counts the accepted ones into rep; the caller counts the rest.
func (a *Agent) pass(entries []repo.Entry, rep *Report) []Verdict {
	p := a.newPass(entries, rep)
	chunk.Run(len(entries), p.prepare, p.fold)
	return p.verdicts
}

// passState is one pass's prepared results: each entry's verdict, and
// each chunk's accepted candidates packed at the start of its span.
type passState struct {
	a        *Agent
	entries  []repo.Entry
	nested   map[string]struct{}
	rep      *Report
	verdicts []Verdict
	cands    []dimmunix.Candidate
	accepted []int // per chunk
}

func (a *Agent) newPass(entries []repo.Entry, rep *Report) *passState {
	return &passState{
		a:        a,
		entries:  entries,
		nested:   a.nestedSites(entries),
		rep:      rep,
		verdicts: make([]Verdict, len(entries)),
		cands:    make([]dimmunix.Candidate, len(entries)),
		accepted: make([]int, (len(entries)+chunk.Size-1)/chunk.Size),
	}
}

// prepare validates the entries of one chunk.
func (p *passState) prepare(lo, hi int) {
	k := lo
	for i := lo; i < hi; i++ {
		s, v := p.a.validate(p.entries[i].Sig, p.nested)
		p.verdicts[i] = v
		if v == VerdictAccepted {
			p.cands[k] = dimmunix.Candidate{Sig: s, Bug: s.BugHash()}
			k++
		}
	}
	p.accepted[lo/chunk.Size] = k - lo
}

// fold generalizes one prepared chunk's accepted signatures into the
// history.
func (p *passState) fold(lo, _ int) {
	batch := p.cands[lo : lo+p.accepted[lo/chunk.Size]]
	added := p.a.cfg.History.GeneralizeBatch(batch, p.a.policy)
	p.rep.Accepted += len(batch)
	p.rep.Added += added
	p.rep.Merged += len(batch) - added
}

// nestedSites fetches the application's nested-site set once for a pass
// over entries (nil when there are none): an implementation may build
// the set per call, and a class load during the pass can only add sites,
// which OnClassesLoaded's recheck of pending signatures picks up.
func (a *Agent) nestedSites(entries []repo.Entry) map[string]struct{} {
	if len(entries) == 0 {
		return nil
	}
	return a.cfg.App.NestedSiteKeys()
}

func countRejection(v Verdict, rep *Report) {
	switch v {
	case VerdictRejectedHash:
		rep.RejectedHash++
	case VerdictRejectedDepth:
		rep.RejectedDepth++
	}
}

// validate runs the three §III-C3 checks against the nested-site set,
// returning the (possibly trimmed) signature and the verdict. It never
// writes to s, which is the repository's: the trimmed signature is a new
// Threads slice whose stacks are suffixes of s's, shared read-only.
func (a *Agent) validate(s *sig.Signature, nested map[string]struct{}) (*sig.Signature, Verdict) {
	out := &sig.Signature{Threads: make([]sig.ThreadSpec, len(s.Threads)), Origin: sig.OriginRemote}

	// 1. Hash check on every stack (outer and inner).
	for i, t := range s.Threads {
		outer, ok := a.validateStack(t.Outer)
		if !ok {
			return nil, VerdictRejectedHash
		}
		inner, ok := a.validateStack(t.Inner)
		if !ok {
			return nil, VerdictRejectedHash
		}
		out.Threads[i] = sig.ThreadSpec{Outer: outer, Inner: inner}
	}
	out.Normalize()

	// 2. Depth floor on outer stacks.
	if out.MinOuterDepth() < a.cfg.MinOuterDepth {
		return nil, VerdictRejectedDepth
	}

	// 3. Outer stacks must end in proved-nested sync sites.
	for _, th := range out.Threads {
		if _, ok := nested[th.Outer.Top().Key()]; !ok {
			return nil, VerdictPendingNesting
		}
	}
	return out, VerdictAccepted
}

// validateStack is the §III-C3 per-stack hash check: scanning from the
// top frame, the top must match the application or the signature is
// rejected; below it, the longest suffix whose hashes match is kept. The
// kept suffix is a subslice of cs.
func (a *Agent) validateStack(cs sig.Stack) (sig.Stack, bool) {
	if cs.Depth() == 0 {
		return nil, false
	}
	matches := func(f sig.Frame) bool {
		h, ok := a.cfg.App.UnitHash(f.Class)
		return ok && h == f.Hash
	}
	if !matches(cs.Top()) {
		return nil, false
	}
	keep := 1
	for i := cs.Depth() - 2; i >= 0; i-- {
		if !matches(cs[i]) {
			break
		}
		keep++
	}
	return cs.Suffix(keep), true
}
