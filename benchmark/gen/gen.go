// Package gen builds every input of the benchmark from one seed: the
// modelled application, the signature pool, the users, the operation
// schedules and their shuffles. The program under test receives only
// what this package generates, and every expected outcome (reply status,
// accepted count, agent verdicts) is predicted here, before the run.
//
// Outcomes are order-independent by construction: an operation whose
// verdict depends on an earlier upload (duplicate, adjacent, over
// budget) always refers to an upload of the preload, which set-up
// commits before the measured phase starts. The measured operations can
// therefore be interleaved in any order — across sessions, inside the
// in-flight window — without changing a single reply or the final state.
package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"communix"
	"communix/internal/bytecode"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
	"communix/internal/workload"
)

// Key is the predefined AES-128 key the benchmark's authority and
// servers share (arbitrary but fixed).
var Key = []byte("communix-bench-k")

// App is the modelled application every node "runs": identical class
// hashes and nested lock sites on every machine.
type App struct {
	App  *bytecode.App
	View *bytecode.View
	// Sites are the analyzable nested lock paths, one per distinct outer
	// lock statement, with class hashes stamped on every frame.
	Sites []Site
}

// Site is one nested lock construct: the stack at the outer lock
// statement and the stack at the inner one.
type Site struct {
	Outer communix.Stack
	Inner communix.Stack
}

// NewApp generates the application for a seed. nested is the number of
// nested lock constructs (it bounds how many distinct lock-order
// inversions the protect workload can replay: nested²/2).
func NewApp(seed int64, nested int) (*App, error) {
	app, err := bytecode.Generate(bytecode.Profile{
		Name: "bench", LOC: 400 * nested, SyncSites: 4 * nested, ExplicitOps: nested / 10,
		Analyzed: 3 * nested, Nested: nested,
		// Three call paths per construct sharing their six innermost
		// dispatcher frames: manifestations of one bug keep a common
		// outer suffix of seven frames, above the depth-5 floor, so the
		// agent's generalization merges them.
		PathVariants: 3, SharedTail: 6,
		Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("gen: app: %w", err)
	}
	view := bytecode.NewView(app)
	view.LoadAll()
	a := &App{App: app, View: view}
	seen := make(map[string]bool)
	for _, lp := range app.LockPaths() {
		if !lp.Nested || lp.Opaque || seen[lp.Outer.Top().Key()] {
			continue
		}
		seen[lp.Outer.Top().Key()] = true
		a.Sites = append(a.Sites, Site{Outer: a.stamp(lp.Outer), Inner: a.stamp(lp.Inner)})
	}
	if len(a.Sites) < 4 {
		return nil, fmt.Errorf("gen: app has only %d nested sites", len(a.Sites))
	}
	return a, nil
}

// stamp attaches the application's class hashes to a modelled stack, as
// the Communix plugin does for real frames.
func (a *App) stamp(cs communix.Stack) communix.Stack {
	out := make(communix.Stack, len(cs))
	for i, f := range cs {
		out[i] = a.App.Frame(f.Class, f.Method, f.Line)
	}
	return out
}

// variants returns every analyzable nested lock path grouped by outer
// lock statement — the manifestations of each construct.
func (a *App) variants() [][]Site {
	index := make(map[string]int)
	var out [][]Site
	for _, lp := range a.App.LockPaths() {
		if !lp.Nested || lp.Opaque {
			continue
		}
		k := lp.Outer.Top().Key()
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], Site{Outer: a.stamp(lp.Outer), Inner: a.stamp(lp.Inner)})
	}
	return out
}

// inversion builds the signature a lock-order inversion over two sites
// produces: thread 1 holds s1's outer lock and blocks at s1's inner
// statement, thread 2 likewise over s2.
func inversion(s1, s2 Site) *communix.Signature {
	s := &communix.Signature{Threads: []communix.ThreadSpec{
		{Outer: s1.Outer.Clone(), Inner: s1.Inner.Clone()},
		{Outer: s2.Outer.Clone(), Inner: s2.Inner.Clone()},
	}}
	s.Normalize()
	return s
}

// Flow is one lock-order inversion of the protect workload: two sites of
// the application taken in opposite orders by two threads.
type Flow struct {
	S1, S2 int // indices into App.Sites
	// User is the uploader this flow belongs to; flows of one user share
	// no lock statement, so the server's adjacency check never fires, and
	// a user has at most FlowsPerUser flows, inside the daily budget.
	User int
	// ID is the content hash of the signature the inversion produces.
	ID string
}

// FlowsPerUser is the server's default daily budget (§III-C1).
const FlowsPerUser = 10

// Flows returns up to n distinct lock-order inversions, grouped
// FlowsPerUser to an uploader. Every flow is a different deadlock bug
// (a different pair of sites).
func (a *App) Flows(seed int64, n int) []Flow {
	r := rand.New(rand.NewSource(seed ^ 0x70726f74))
	used := make(map[[2]int]bool)
	var flows []Flow
	perm := make([]int, len(a.Sites))
	for i := range perm {
		perm[i] = i
	}
	// A stale user (one that could place no new flow) means the pair
	// space is nearly exhausted; stop rather than spin.
	for user, stale := 0, 0; len(flows) < n && stale < 8; user++ {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		tops := make(map[string]bool)
		placed := 0
		for k := 0; k+1 < len(perm) && placed < FlowsPerUser && len(flows) < n; k += 2 {
			i, j := perm[k], perm[k+1]
			if i > j {
				i, j = j, i
			}
			if used[[2]int{i, j}] {
				continue
			}
			sg := inversion(a.Sites[i], a.Sites[j])
			clash := false
			for t := range sg.TopFrames() {
				if tops[t] {
					clash = true
				}
			}
			if clash || len(sg.TopFrames()) != 4 {
				continue
			}
			for t := range sg.TopFrames() {
				tops[t] = true
			}
			used[[2]int{i, j}] = true
			flows = append(flows, Flow{S1: perm[k], S2: perm[k+1], User: user, ID: sg.ID()})
			placed++
		}
		if placed == 0 {
			stale++
		} else {
			stale = 0
		}
	}
	return flows
}

// Kind classifies one upload of the ingest workload by the verdict the
// server must give it.
type Kind uint8

// Upload kinds.
const (
	// Fresh: a new, non-adjacent signature from a user inside the daily
	// budget — accepted.
	Fresh Kind = iota
	// Duplicate: a byte-identical re-upload of a preloaded signature by
	// the same user — acknowledged as a duplicate, not stored again.
	Duplicate
	// Adjacent: shares some but not all lock statements with a signature
	// the same user preloaded — rejected (§III-C2).
	Adjacent
	// OverBudget: a new signature from a user whose preload used the
	// whole daily budget — rejected (§III-C1).
	OverBudget
	// BadToken: a new signature under a token the key does not verify —
	// rejected.
	BadToken
)

func (k Kind) String() string {
	return [...]string{"fresh", "duplicate", "adjacent", "over-budget", "bad-token"}[k]
}

// Expect reports the reply the server must give an upload of this kind:
// its status and whether it is acknowledged as a duplicate.
func (k Kind) Expect() (status wire.Status, duplicate bool) {
	switch k {
	case Fresh:
		return wire.StatusOK, false
	case Duplicate:
		return wire.StatusOK, true
	default:
		return wire.StatusRejected, false
	}
}

// Upload is one ADD of the ingest workload.
type Upload struct {
	Kind Kind
	// User indexes the minted users; -1 marks BadToken.
	User int
	// Sig is the signature in wire form.
	Sig json.RawMessage
}

// IngestPlan is the ingest workload's whole input.
type IngestPlan struct {
	// Users is how many users set-up must mint, in index order.
	Users int
	// Preload is committed during set-up: the signatures the dependent
	// kinds refer to. Every preload upload is accepted.
	Preload []Upload
	// Paced, Single and Saturate hold one schedule per session for each
	// phase, already shuffled.
	Paced    [][]Upload
	Single   [][]Upload
	Saturate [][]Upload
	// BadToken is the token BadToken uploads carry.
	BadToken communix.Token
}

// Share of each dependent kind among the measured uploads; the rest are
// Fresh. 85/5/5/5 with the 5 % of refusals split between budget and
// token.
const (
	dupShare      = 0.05
	adjacentShare = 0.05
	budgetShare   = 0.025
	tokenShare    = 0.025
)

// Sizes of the preload pools the dependent kinds draw from.
const (
	dupBases      = 64
	adjacentBases = 64
	maxedUsers    = 16
)

// Ingest builds the ingest plan: for each phase, sessions schedules of
// paced, single and saturate uploads. shuffle perturbs only the order of the
// schedules, never their content: two plans differing only in shuffle
// hold the same uploads and must leave the server in the same state.
func Ingest(seed, shuffle int64, sessions, paced, single, saturate int) (*IngestPlan, error) {
	r := rand.New(rand.NewSource(seed ^ 0x696e6765))
	p := &IngestPlan{BadToken: communix.Token(hex.EncodeToString([]byte("not-a-real-token")))}
	salt := 0
	fresh := func() (json.RawMessage, error) {
		salt++
		return json.Marshal(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt, 5, 8))
	}
	user := func() int { p.Users++; return p.Users - 1 }

	type base struct {
		user int
		sig  *communix.Signature
		raw  json.RawMessage
	}
	preload := func(n int, perUser int) ([]base, error) {
		var out []base
		for i := 0; i < n; i++ {
			u := user()
			for k := 0; k < perUser; k++ {
				salt++
				s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt, 5, 8)
				raw, err := json.Marshal(s)
				if err != nil {
					return nil, err
				}
				out = append(out, base{user: u, sig: s, raw: raw})
				p.Preload = append(p.Preload, Upload{Kind: Fresh, User: u, Sig: raw})
			}
		}
		return out, nil
	}
	dups, err := preload(dupBases, 1)
	if err != nil {
		return nil, err
	}
	adjs, err := preload(adjacentBases, 1)
	if err != nil {
		return nil, err
	}
	maxed, err := preload(maxedUsers, FlowsPerUser)
	if err != nil {
		return nil, err
	}

	// adjacent derives a signature sharing exactly two of the base's four
	// lock statements: thread 0 keeps its stacks, thread 1 gets fresh
	// tops.
	adjacent := func(b base) (json.RawMessage, error) {
		salt++
		s := b.sig.Clone()
		donor := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt, 5, 8)
		s.Threads[1] = donor.Threads[1]
		s.Normalize()
		return json.Marshal(s)
	}

	total := sessions * (paced + single + saturate)
	all := make([]Upload, 0, total)
	freshUser, freshLeft := -1, 0
	for i := 0; i < total; i++ {
		var up Upload
		switch x := r.Float64(); {
		case x < dupShare:
			b := dups[r.Intn(len(dups))]
			up = Upload{Kind: Duplicate, User: b.user, Sig: b.raw}
		case x < dupShare+adjacentShare:
			b := adjs[r.Intn(len(adjs))]
			raw, err := adjacent(b)
			if err != nil {
				return nil, err
			}
			up = Upload{Kind: Adjacent, User: b.user, Sig: raw}
		case x < dupShare+adjacentShare+budgetShare:
			raw, err := fresh()
			if err != nil {
				return nil, err
			}
			up = Upload{Kind: OverBudget, User: maxed[r.Intn(len(maxed))].user, Sig: raw}
		case x < dupShare+adjacentShare+budgetShare+tokenShare:
			raw, err := fresh()
			if err != nil {
				return nil, err
			}
			up = Upload{Kind: BadToken, User: -1, Sig: raw}
		default:
			if freshLeft == 0 {
				freshUser, freshLeft = user(), FlowsPerUser
			}
			freshLeft--
			raw, err := fresh()
			if err != nil {
				return nil, err
			}
			up = Upload{Kind: Fresh, User: freshUser, Sig: raw}
		}
		all = append(all, up)
	}

	// The split into phases and sessions is part of the content (it
	// decides which uploads a shorter run reaches); only the order inside
	// each schedule follows the shuffle seed.
	sh := rand.New(rand.NewSource(seed ^ shuffle ^ 0x73687566))
	cut := func(n int) [][]Upload {
		out := make([][]Upload, sessions)
		for s := range out {
			out[s] = all[:n:n]
			all = all[n:]
			sh.Shuffle(n, func(i, j int) { out[s][i], out[s][j] = out[s][j], out[s][i] })
		}
		return out
	}
	p.Paced = cut(paced)
	p.Single = cut(single)
	p.Saturate = cut(saturate)
	return p, nil
}

// CatchupPlan is the catchup workload's input: the signatures the
// pre-built data directory holds, in log order, and how many of them a
// fresh machine's agent must accept, refuse for a wrong hash, and refuse
// for a too shallow outer stack.
type CatchupPlan struct {
	Sigs                                  []json.RawMessage
	Accepted, RejectedHash, RejectedDepth int
}

// Catchup builds n distinct signatures: about half are manifestations of
// deadlocks of the application that generalize into each other, a fifth
// are depth-5 signatures over its hot sites (valid, the worst case
// validation admits), and the rest are what validation exists to refuse —
// depth-1 attack signatures and signatures of another build.
func (a *App) Catchup(seed int64, n int) (*CatchupPlan, error) {
	r := rand.New(rand.NewSource(seed ^ 0x63617463))
	p := &CatchupPlan{}
	seen := make(map[string]bool)
	// add appends s unless the plan already holds it, counting it under
	// the verdict the agent must reach.
	add := func(s *communix.Signature, verdict *int) error {
		s.Normalize()
		if id := s.ID(); seen[id] {
			return nil
		} else {
			seen[id] = true
		}
		raw, err := json.Marshal(s)
		if err != nil {
			return err
		}
		p.Sigs = append(p.Sigs, raw)
		*verdict++
		return nil
	}

	nDepth5 := n / 5
	nDepth1 := n * 15 / 100
	nForeign := n * 15 / 100
	for _, s := range workload.MaliciousSignatures(a.App, nDepth5, workload.AttackCriticalPath, seed+1) {
		if err := add(s, &p.Accepted); err != nil {
			return nil, err
		}
	}
	for _, s := range workload.MaliciousSignatures(a.App, nDepth1, workload.AttackDepth1, seed+2) {
		if err := add(s, &p.RejectedDepth); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nForeign; i++ {
		if err := add(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i+1, 6, 9), &p.RejectedHash); err != nil {
			return nil, err
		}
	}
	// Manifestations: full-depth inversions over random site pairs, each
	// through a random call path of either site. Pairs repeat, so the
	// agent merges later manifestations into earlier ones.
	vars := a.variants()
	bugs := n / 8
	if bugs < 1 {
		bugs = 1
	}
	pairs := make([][2]int, bugs)
	for i := range pairs {
		x := r.Intn(len(vars))
		y := r.Intn(len(vars) - 1)
		if y >= x {
			y++
		}
		pairs[i] = [2]int{x, y}
	}
	for tries := 0; len(p.Sigs) < n && tries < 64*n; tries++ {
		pr := pairs[r.Intn(len(pairs))]
		v1, v2 := vars[pr[0]], vars[pr[1]]
		if err := add(inversion(v1[r.Intn(len(v1))], v2[r.Intn(len(v2))]), &p.Accepted); err != nil {
			return nil, err
		}
	}
	if len(p.Sigs) != n {
		return nil, fmt.Errorf("gen: catchup: built %d of %d distinct signatures", len(p.Sigs), n)
	}
	// Log order is part of the input: interleave the classes.
	r.Shuffle(n, func(i, j int) { p.Sigs[i], p.Sigs[j] = p.Sigs[j], p.Sigs[i] })
	return p, nil
}

// LockPlan is the lockpath workload's input: which lock sites of the
// fixed call tree each iteration visits, at which stack depths, and
// which of them set-up deadlocks so that the history matches them.
type LockPlan struct {
	// Paths is one iteration of the application loop: every path takes
	// an outer lock site and, nested inside it, an inner one.
	Paths []LockPath
	// Deadlocks are the pairs of paths (indices into Paths) set-up drives
	// into a lock-order inversion once; their outer acquisitions match
	// the history from then on.
	Deadlocks [][2]int
	// Padding are synthetic signatures that bring the history to its
	// steady-state size, and Installs the ones the background goroutine
	// adds during the run; none matches a site of the call tree.
	Padding  []*communix.Signature
	Installs []*communix.Signature
}

// LockPath is one nested acquisition: Outer and Inner index the call
// tree's lock sites, Pad is how many extra frames sit below each.
type LockPath struct {
	Outer, Inner       int
	OuterPad, InnerPad int
	// Matched marks paths whose outer acquisition matches a history
	// signature once set-up has deadlocked them.
	Matched bool
}

// Lock builds the lockpath plan over a call tree of sites lock sites:
// paths nested pairs per iteration of which matched (an even number) are
// deadlocked in set-up, a history padded to history signatures, and
// installs background installs. Every site is used exactly once, so a
// path's sites identify it.
func Lock(seed int64, sites, paths, matched, history, installs int) (*LockPlan, error) {
	if 2*paths > sites || matched%2 != 0 || matched > paths {
		return nil, fmt.Errorf("gen: lock: %d paths (%d matched) do not fit %d sites", paths, matched, sites)
	}
	r := rand.New(rand.NewSource(seed ^ 0x6c6f636b))
	perm := r.Perm(sites)
	p := &LockPlan{}
	// Stack depths 8–24 at the outer site: the goroutine's own frames
	// account for about four, the padding for the rest. The seed decides
	// which path gets which depth, never how deep the tree is in total:
	// the cost of an acquisition grows with its depth, and a seed must
	// not make the application cheaper or dearer.
	pads := r.Perm(paths)
	for i := 0; i < paths; i++ {
		p.Paths = append(p.Paths, LockPath{
			Outer: perm[2*i], Inner: perm[2*i+1],
			OuterPad: 4 + pads[i]*17/paths, InnerPad: pads[i] % 4,
		})
	}
	// The matched paths are the ones at fixed, evenly spread depth ranks
	// (a matched acquisition costs more the deeper it is); the seed
	// decides which of them deadlock with which.
	byRank := make([]int, paths)
	for i, rank := range pads {
		byRank[rank] = i
	}
	chosen := make([]int, matched)
	for k := range chosen {
		chosen[k] = byRank[(2*k+1)*paths/(2*matched)]
	}
	r.Shuffle(matched, func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })
	for k := 0; k+1 < matched; k += 2 {
		a, b := chosen[k], chosen[k+1]
		p.Paths[a].Matched, p.Paths[b].Matched = true, true
		p.Deadlocks = append(p.Deadlocks, [2]int{a, b})
	}
	synth := func(n int) []*communix.Signature {
		out := make([]*communix.Signature, n)
		for i := range out {
			out[i] = sigtest.Signature(r, sigtest.DefaultVocabulary, 5, 12)
		}
		return out
	}
	if pad := history - len(p.Deadlocks); pad > 0 {
		p.Padding = synth(pad)
	}
	p.Installs = synth(installs)
	return p, nil
}

// Digest condenses schedules into one hash, for checking that a seed
// fixes every input. Values are hashed through their JSON form.
func Digest(parts ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("gen: digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
