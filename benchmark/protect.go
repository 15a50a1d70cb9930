package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"communix"
	"communix/benchmark/gen"
	"communix/benchmark/trace"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// protect measures time-to-protection through the whole product: a
// deadlock on machine A becomes a signature, crosses a three-node
// quorum cell, and ends in machine B's deadlock history, validated.
// Closed loop, one round in flight.

// protectSizes fixes the workload's size. Rounds are bounded by the
// distinct lock-order inversions the application offers; a run that
// exhausts them ends early and is measured over what it did.
type protectSizes struct {
	nested    int // nested lock constructs in the generated application
	maxRounds int
	forced    int // replays driven into a forced overlap, to prove a yield
}

func (c *config) protectSizes() protectSizes {
	if c.tiny {
		return protectSizes{nested: 24, maxRounds: 40, forced: 2}
	}
	return protectSizes{nested: 300, maxRounds: 16000, forced: 8}
}

// armEvery is how often a traced round is followed by a forced overlap
// on machine B, to time how soon the new signature is avoided. The probe
// takes a couple of milliseconds in which the cell idles, and the round
// after an idle spell is slower; probing every round would make the
// traced time-to-protection measure the probe.
const armEvery = 16

// roundTimeout bounds one round; a round that exceeds it is a failed
// operation.
const roundTimeout = 10 * time.Second

// lockMaker is what a replay needs from a node: *communix.Node and
// *communix.Runtime both provide it.
type lockMaker interface {
	NewMutex(name string) *communix.Mutex
}

// How the two threads of a replayed inversion are interleaved.
const (
	// collide: both threads hold their outer lock before either asks for
	// its inner one — the interleaving that deadlocks an unprotected
	// application.
	collide = iota
	// free: both threads start at once and nothing is sequenced, as in
	// the application itself. An unprotected runtime deadlocks or not as
	// the scheduler decides; an immune one parks whichever thread would
	// close the cycle.
	free
)

// invert replays the lock-order inversion over two sites from two
// threads and returns the two inner-acquisition errors.
func invert(n lockMaker, s1, s2 gen.Site, mode int) (error, error) {
	x, y := n.NewMutex("x"), n.NewMutex("y")
	held1 := make(chan struct{})
	held2 := make(chan struct{})
	d1 := make(chan error, 1)
	d2 := make(chan error, 1)
	go func() {
		err := x.LockAt(1, s1.Outer)
		close(held1)
		if err != nil {
			d1 <- err
			return
		}
		if mode == collide {
			<-held2
		}
		if err = y.LockAt(1, s1.Inner); err == nil {
			_ = y.UnlockAt(1)
		}
		_ = x.UnlockAt(1)
		d1 <- err
	}()
	go func() {
		err := y.LockAt(2, s2.Outer)
		close(held2)
		if err != nil {
			d2 <- err
			return
		}
		if mode == collide {
			<-held1
		}
		if err = x.LockAt(2, s2.Inner); err == nil {
			_ = x.UnlockAt(2)
		}
		_ = y.UnlockAt(2)
		d2 <- err
	}()
	return <-d1, <-d2
}

// avoided drives the inversion into the overlap avoidance exists for:
// thread 1 holds its outer lock while thread 2 asks for its own. An
// immune runtime parks thread 2 until thread 1 is through. It returns
// how long after the call the yield was observed.
func avoided(n lockMaker, yields func() uint64, s1, s2 gen.Site) (time.Duration, error) {
	begin := time.Now()
	x, y := n.NewMutex("x"), n.NewMutex("y")
	if err := x.LockAt(1, s1.Outer); err != nil {
		return 0, err
	}
	before := yields()
	done := make(chan error, 1)
	go func() {
		if err := y.LockAt(2, s2.Outer); err != nil {
			done <- err
			return
		}
		err := x.LockAt(2, s2.Inner)
		if err == nil {
			_ = x.UnlockAt(2)
		}
		_ = y.UnlockAt(2)
		done <- err
	}()
	var armed time.Duration
	for deadline := begin.Add(roundTimeout); yields() == before; runtime.Gosched() {
		if time.Now().After(deadline) {
			_ = x.UnlockAt(1)
			<-done
			return 0, errors.New("replay was not avoided: thread 2 never yielded")
		}
	}
	armed = time.Since(begin)
	err := y.LockAt(1, s1.Inner)
	if err == nil {
		_ = y.UnlockAt(1)
	}
	_ = x.UnlockAt(1)
	if err2 := <-done; err == nil {
		err = err2
	}
	return armed, err
}

// cell is the three-node quorum cell, production defaults throughout:
// durable data directories, batch fsync, quorum acknowledgement.
type cell struct {
	srvs   []*communix.Server
	addrs  []string
	served []chan error
}

func startCell(dir string) (*cell, error) {
	const nodes = 3
	c := &cell{}
	lns := make([]net.Listener, nodes)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cell: %w", err)
		}
		lns[i] = l
		c.addrs = append(c.addrs, l.Addr().String())
	}
	for i := 0; i < nodes; i++ {
		var peers []string
		for j, a := range c.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := communix.ServerConfig{
			Key:       gen.Key,
			DataDir:   filepath.Join(dir, fmt.Sprintf("n%d", i)),
			AckMode:   "quorum",
			Advertise: c.addrs[i],
			NodeID:    c.addrs[i],
			Peers:     peers,
		}
		if i > 0 {
			cfg.Follow = c.addrs[0]
		}
		srv, err := communix.NewServer(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, fmt.Errorf("cell: node %d: %w", i, err)
		}
		c.srvs = append(c.srvs, srv)
		done := make(chan error, 1)
		c.served = append(c.served, done)
		go func(l net.Listener) { done <- srv.Serve(l) }(lns[i])
	}
	return c, nil
}

// lag is how far the slowest follower's log is behind the primary's.
func (c *cell) lag() int {
	head, worst := c.srvs[0].Store().Len(), 0
	for _, s := range c.srvs[1:] {
		if d := head - s.Store().Len(); d > worst {
			worst = d
		}
	}
	return worst
}

func (c *cell) close() {
	// Followers first, so no election starts over a vanished primary.
	for i := len(c.srvs) - 1; i >= 0; i-- {
		c.srvs[i].Close()
		<-c.served[i]
	}
}

// subscriber is machine B. The untraced run uses the product's own
// assembly (communix.NewNode); the traced run assembles the same parts
// by hand so the agent's pass is a call the benchmark can time.
type subscriber interface {
	lockMaker
	History() *communix.History
	yields() uint64
	deadlocks() uint64
	Close()
}

type nodeSubscriber struct{ *communix.Node }

func (n nodeSubscriber) yields() uint64    { return n.Runtime().Stats().Yields }
func (n nodeSubscriber) deadlocks() uint64 { return n.Runtime().Stats().Deadlocks }

// protectRig is one assembled instance of the system under test.
type protectRig struct {
	cell      *cell
	uploaders []*communix.Node
	sub       subscriber
	// deadlockAt is when the current round's uploader reported its
	// deadlock (unix nanoseconds; 0 until it does), and sigID the
	// signature it extracted.
	deadlockAt atomic.Int64
	sigID      atomic.Value
	// landed carries the time machine B's history was updated.
	landed chan time.Time
	// traced-run extras
	rec        *trace.Recorder
	tapA, tapB *trace.FrameLog
	validated  chan [2]time.Time // RunStartup begin/end, traced runs
}

// dialer opens one connection to a server.
type dialer = func() (net.Conn, error)

// tcp returns a dialer for addr.
func tcp(addr string) dialer {
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) }
}

// newProtectRig starts the cell, mints the users, connects every
// uploader and the subscriber, and commits one warm-up upload so that
// replication and the push stream are known to be flowing.
func newProtectRig(dir string, app *gen.App, users int, rec *trace.Recorder) (*protectRig, error) {
	rig := &protectRig{landed: make(chan time.Time, 16), rec: rec}
	var err error
	if rig.cell, err = startCell(dir); err != nil {
		return nil, err
	}
	fail := func(err error) (*protectRig, error) { rig.close(); return nil, err }
	auth, err := communix.NewAuthority(gen.Key)
	if err != nil {
		return fail(err)
	}
	_, warmToken := auth.Issue()
	_, subToken := auth.Issue()

	dialA, dialB := tcp(rig.cell.addrs[0]), tcp(rig.cell.addrs[1])
	if rec != nil {
		rig.tapA, rig.tapB = &trace.FrameLog{}, &trace.FrameLog{}
		rig.validated = make(chan [2]time.Time, 16)
		dialA, dialB = rig.tapA.Dial(dialA), rig.tapB.Dial(dialB)
	}

	if rec == nil {
		n, err := communix.NewNode(communix.NodeConfig{
			ServerAddr: rig.cell.addrs[1], Token: subToken,
			App: app.View, AppKey: "bench@B", Subscribe: true,
			Policy:       communix.RecoverBreak,
			OnSignatures: func(int) { rig.landed <- time.Now() },
		})
		if err != nil {
			return fail(err)
		}
		rig.sub = nodeSubscriber{n}
	} else {
		if rig.sub, err = newTracedSubscriber(rig, app, subToken, dialB); err != nil {
			return fail(err)
		}
	}

	for u := 0; u < users; u++ {
		_, token := auth.Issue()
		n, err := communix.NewNode(communix.NodeConfig{
			Dial: dialA, Token: token,
			App: app.View, AppKey: "bench@A",
			Policy: communix.RecoverBreak,
			OnDeadlock: func(d communix.Deadlock) {
				rig.deadlockAt.Store(time.Now().UnixNano())
				rig.sigID.Store(d.Signature)
			},
		})
		if err != nil {
			return fail(err)
		}
		rig.uploaders = append(rig.uploaders, n)
	}

	// Warm-up: a signature of some other application. It must commit
	// under quorum, reach both followers, and be pushed to B (whose
	// agent refuses it: wrong hashes).
	warm := sigtest.DistinctTops(newRand(1), sigtest.DefaultVocabulary, 1, 6, 9)
	sess, err := openSession(tcp(rig.cell.addrs[0]))
	if err != nil {
		return fail(err)
	}
	defer sess.close()
	req, err := wire.NewAdd(warmToken, warm)
	if err != nil {
		return fail(err)
	}
	resp, err := sess.roundTrip(req)
	if err != nil {
		return fail(fmt.Errorf("warm-up upload: %w", err))
	}
	if resp.Status != wire.StatusOK {
		return fail(fmt.Errorf("warm-up upload: %s: %s", resp.Status, resp.Detail))
	}
	if err := rig.quiesce(1); err != nil {
		return fail(err)
	}
	select {
	case <-rig.landed:
		if rig.validated != nil {
			<-rig.validated
		}
	case <-time.After(roundTimeout):
		return fail(errors.New("warm-up signature never reached machine B"))
	}
	return rig, nil
}

// quiesce waits until every node of the cell holds n signatures.
func (r *protectRig) quiesce(n int) error {
	deadline := time.Now().Add(roundTimeout)
	for {
		ok := true
		for _, s := range r.cell.srvs {
			if s.Store().Len() != n {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cell did not converge on %d signatures (primary has %d)", n, r.cell.srvs[0].Store().Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *protectRig) close() {
	for _, n := range r.uploaders {
		if n != nil {
			n.Close()
		}
	}
	if r.sub != nil {
		r.sub.Close()
	}
	if r.cell != nil {
		r.cell.close()
	}
}

// eachStored pages through a server's database, in log order.
func eachStored(srv *communix.Server, fn func(raw json.RawMessage) error) error {
	for from := 1; ; {
		resp := srv.Process(wire.NewGet(from))
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("GET(%d): %s: %s", from, resp.Status, resp.Detail)
		}
		for _, raw := range resp.Sigs {
			if err := fn(raw); err != nil {
				return err
			}
		}
		if !resp.More {
			return nil
		}
		from = resp.Next
	}
}

// storedIDs returns the content hashes of everything a server holds.
func storedIDs(srv *communix.Server) (map[string]bool, error) {
	ids := make(map[string]bool)
	err := eachStored(srv, func(raw json.RawMessage) error {
		var s communix.Signature
		if err := json.Unmarshal(raw, &s); err != nil {
			return fmt.Errorf("stored signature: %w", err)
		}
		s.Normalize()
		ids[s.ID()] = true
		return nil
	})
	return ids, err
}

// protectRound is one measured round and, in traced runs, its stage
// edges.
type protectRound struct {
	flow     gen.Flow
	at       time.Duration // completion, from the phase start
	start    time.Time     // flow started on A
	deadlock time.Time     // A's OnDeadlock
	landed   time.Time     // B's history updated
	valBegin time.Time     // traced: RunStartup entered
	armed    time.Duration
	// lag is how many signatures the slower follower was behind the
	// primary when the round ended.
	lag int
}

// runRounds plays rounds for the given duration (or until flows run
// out).
func (r *protectRig) runRounds(app *gen.App, flows []gen.Flow, d time.Duration, traced bool) (rounds []protectRound, err error) {
	begin := time.Now()
	for i, f := range flows {
		if time.Since(begin) >= d {
			break
		}
		s1, s2 := app.Sites[f.S1], app.Sites[f.S2]
		rd := protectRound{flow: f, start: time.Now()}
		r.deadlockAt.Store(0)
		e1, e2 := invert(r.uploaders[f.User], s1, s2, collide)
		if errors.Is(e1, communix.ErrDeadlock) == errors.Is(e2, communix.ErrDeadlock) {
			return nil, fmt.Errorf("round %d: expected exactly one denied acquisition, got %v / %v", i, e1, e2)
		}
		if got, _ := r.sigID.Load().(*communix.Signature); got == nil || got.ID() != f.ID {
			return nil, fmt.Errorf("round %d: machine A extracted a signature other than the generated inversion", i)
		}
		rd.deadlock = time.Unix(0, r.deadlockAt.Load())
		select {
		case rd.landed = <-r.landed:
		case <-time.After(roundTimeout):
			// The upload or the push was lost; later rounds could not be
			// told apart from this one's late arrival.
			return nil, fmt.Errorf("round %d: signature did not reach machine B within %s", i, roundTimeout)
		}
		rd.lag = r.cell.lag()
		if traced {
			v := <-r.validated
			rd.valBegin = v[0]
			if i%armEvery == 0 {
				if rd.armed, err = avoided(r.sub, r.sub.yields, s1, s2); err != nil {
					return nil, fmt.Errorf("round %d: %w", i, err)
				}
			}
		}
		rd.at = rd.landed.Sub(begin)
		rounds = append(rounds, rd)
	}
	return rounds, nil
}

// protectSamples returns the rounds' time-to-protection (A's OnDeadlock →
// B's history updated) and detection time (flow start → A's OnDeadlock).
func protectSamples(rounds []protectRound) (ttp, detect []sample) {
	for _, rd := range rounds {
		ttp = append(ttp, sample{at: rd.at, lat: rd.landed.Sub(rd.deadlock)})
		detect = append(detect, sample{at: rd.at, lat: rd.deadlock.Sub(rd.start)})
	}
	return ttp, detect
}

// verify is the protect correctness gate. It returns machine B's
// replays, timed, and how many of them deadlocked despite immunity.
func (r *protectRig) verify(app *gen.App, done []protectRound, forced int) (replays []sample, deadlocked int, err error) {
	fail := func(err error) ([]sample, int, error) { return nil, 0, err }
	want := len(done) + 1 // + warm-up
	if err := r.quiesce(want); err != nil {
		return fail(err)
	}
	digest := r.cell.srvs[0].Store().StateDigest()
	for i, s := range r.cell.srvs[1:] {
		if d := s.Store().StateDigest(); d != digest {
			return fail(fmt.Errorf("follower %d state digest %s differs from the primary's %s", i+1, d, digest))
		}
	}
	ids, err := storedIDs(r.cell.srvs[0])
	if err != nil {
		return fail(err)
	}
	hist := r.sub.History()
	for _, rd := range done {
		if !ids[rd.flow.ID] {
			return fail(fmt.Errorf("acknowledged signature %s is missing from the cell", rd.flow.ID))
		}
		if hist.Get(rd.flow.ID) == nil {
			return fail(fmt.Errorf("signature %s is not in machine B's history", rd.flow.ID))
		}
	}
	// B replays every flow, its two threads started together and nothing
	// sequenced. Immunity should let none of them deadlock. On the commit
	// that added the benchmark a few replays in a million do all the same
	// (about one in five hundred under the race detector) — both threads
	// pass the threat check before either has registered its hold — and
	// RecoverBreak then denies one acquisition.
	// Such a replay is a failed operation: counted, reported, and more
	// than tolerated of them fail the gate.
	before := r.sub.deadlocks()
	begin := time.Now()
	for _, rd := range done {
		t := time.Now()
		e1, e2 := invert(r.sub, app.Sites[rd.flow.S1], app.Sites[rd.flow.S2], free)
		now := time.Now()
		replays = append(replays, sample{at: now.Sub(begin), lat: now.Sub(t)})
		for _, e := range []error{e1, e2} {
			if errors.Is(e, communix.ErrDeadlock) {
				deadlocked++
			} else if e != nil {
				return fail(fmt.Errorf("machine B replay of %s failed: %v", rd.flow.ID, e))
			}
		}
	}
	if n := int(r.sub.deadlocks() - before); n != deadlocked {
		return fail(fmt.Errorf("machine B's runtime counted %d deadlocks, its replays were denied %d acquisitions", n, deadlocked))
	}
	if deadlocked > tolerated(len(done)) {
		return fail(fmt.Errorf("machine B deadlocked in %d of %d replays despite immunity", deadlocked, len(done)))
	}
	for i := 0; i < forced && i < len(done); i++ {
		f := done[i*len(done)/forced].flow
		if _, err := avoided(r.sub, r.sub.yields, app.Sites[f.S1], app.Sites[f.S2]); err != nil {
			return fail(fmt.Errorf("machine B: %w", err))
		}
	}
	if r.sub.yields() == 0 {
		return fail(errors.New("machine B never yielded: avoidance is not armed"))
	}
	return replays, deadlocked, nil
}

func runProtect(c *config) (*outcome, error) {
	sz := c.protectSizes()
	genStart := time.Now()
	app, err := gen.NewApp(c.seed, sz.nested)
	if err != nil {
		return nil, err
	}
	flows := app.Flows(c.seed, sz.maxRounds)
	if len(flows) == 0 {
		return nil, errors.New("protect: generator produced no flows")
	}
	users := flows[len(flows)-1].User + 1
	out := newOutcome()
	out.genSeconds = time.Since(genStart).Seconds()

	// Set up several times and keep the last instance for the run.
	var rig *protectRig
	for rep, spent := 0, time.Duration(0); c.setUpAgain(rep, spent); rep++ {
		if rig != nil {
			rig.close()
		}
		dir, err := c.scratch(fmt.Sprintf("cell%d", rep))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if rig, err = newProtectRig(dir, app, users, nil); err != nil {
			return nil, fmt.Errorf("protect set-up: %w", err)
		}
		spent += time.Since(t)
		out.setup = append(out.setup, time.Since(t).Seconds())
	}
	defer func() { rig.close() }()

	d := c.duration
	if c.trace {
		// The traced run spends half its time untraced, on an identical
		// instance, so that the tracing overhead is measured and not
		// assumed.
		d /= 2
	}
	runtime.GC()
	rounds, err := rig.runRounds(app, flows, d, false)
	if err != nil {
		return nil, fmt.Errorf("protect: %w", err)
	}
	replays, deadlocked, err := rig.verify(app, rounds, sz.forced)
	if err != nil {
		return nil, fmt.Errorf("protect: correctness: %w", err)
	}
	// One operation per round and one per replay.
	out.attempted, out.failed = 2*len(rounds), deadlocked
	ttp, detect := protectSamples(rounds)
	phase := spanOf(ttp, d)
	out.named["ttp_p50_ms"] = named(latency(ttp, phase, 0.5, time.Millisecond), "ms")
	out.named["ttp_p95_ms"] = named(latency(ttp, phase, 0.95, time.Millisecond), "ms")
	out.named["detect_p50_ms"] = named(latency(detect, phase, 0.5, time.Millisecond), "ms")
	out.named["rounds_s"] = named(rate(ttp, phase), "1/s")
	out.named["replay_ops_s"] = named(rate(replays, spanOf(replays, 0)), "1/s")
	out.bounded(out.named["ttp_p50_ms"], out.named["rounds_s"], out.named["detect_p50_ms"])
	if !c.trace {
		return out, nil
	}
	rig.close()
	dir, err := c.scratch("cell-traced")
	if err != nil {
		return nil, err
	}
	if rig, err = newProtectRig(dir, app, users, c.rec); err != nil {
		return nil, fmt.Errorf("protect traced set-up: %w", err)
	}
	return protectLayers(c, rig, app, flows, sz, out)
}

// spanOf is the length of a measured phase: up to its last completion.
// That is the nominal duration give or take one operation, unless the
// generated input ran out first — then the phase is what was measured.
// Samples are in completion order.
func spanOf(samples []sample, d time.Duration) time.Duration {
	if n := len(samples); n > 0 {
		return samples[n-1].at
	}
	return d
}
