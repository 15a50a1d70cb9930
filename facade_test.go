package communix_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"communix"
	"communix/internal/bytecode"
	"communix/internal/dimmunix"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/stacktrace"
	"communix/internal/wire"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// buildSig assembles a two-thread signature from four stacks.
func buildSig(o1, i1, o2, i2 communix.Stack) *communix.Signature {
	return sig.New(
		sig.ThreadSpec{Outer: o1, Inner: i1},
		sig.ThreadSpec{Outer: o2, Inner: i2},
	)
}

func TestOfflineNodeRejectsOnlineOperations(t *testing.T) {
	node, err := communix.NewNode(communix.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.SyncNow(); err == nil || !strings.Contains(err.Error(), "offline") {
		t.Errorf("SyncNow offline = %v, want offline error", err)
	}
	if _, err := node.ValidateRepository(); err == nil {
		t.Error("ValidateRepository without an app view should error")
	}
	if _, err := node.RecheckNesting(); err == nil {
		t.Error("RecheckNesting without an app view should error")
	}
}

func TestNodeRejectsCorruptPersistence(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "history.json")
	if err := writeFile(bad, "{nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := communix.NewNode(communix.NodeConfig{HistoryPath: bad}); err == nil {
		t.Error("corrupt history should fail node construction")
	}

	badRepo := filepath.Join(dir, "repo.json")
	if err := writeFile(badRepo, "{nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := communix.NewNode(communix.NodeConfig{RepoPath: badRepo}); err == nil {
		t.Error("corrupt repo should fail node construction")
	}
}

func TestNodeMutexLifecycle(t *testing.T) {
	node, err := communix.NewNode(communix.NodeConfig{Policy: communix.RecoverBreak})
	if err != nil {
		t.Fatal(err)
	}
	mu := node.NewMutex("m")
	if err := mu.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := mu.Unlock(); err != nil {
		t.Fatal(err)
	}
	node.Close()
	if err := mu.Lock(); !errors.Is(err, communix.ErrClosed) {
		t.Errorf("Lock after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	node.Close()
}

// TestMixedMutexYieldChanWaitCycleBroken pins NewNode's wiring: a node's
// mutexes and channels share one yield graph. A mutex yielder parks
// behind a lock its blocker holds; the blocker then waits on a recv only
// the yielder can rescue. Only the node's one cycle breaker can see that
// cycle (the re-home timeout is a minute), and it must force the yielder
// through exactly once.
func TestMixedMutexYieldChanWaitCycleBroken(t *testing.T) {
	dimmunix.SetYieldRehomeTimeout(time.Minute)
	defer dimmunix.SetYieldRehomeTimeout(time.Second)

	node, err := communix.NewNode(communix.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	site := func(name string) communix.Stack {
		return communix.Stack{{Class: "app/Mixed", Method: "run", Line: 10}, {Class: "app/Sites", Method: name, Line: 100}}
	}
	outer1, outer2 := site("lock1"), site("lock2")
	node.History().Add(buildSig(outer1, site("lock1then2"), outer2, site("lock2then1")))
	l1, l2 := node.NewMutex("mixed-1"), node.NewMutex("mixed-2")
	rescue := communix.NewChan[int](node, "mixed-rescue", 1)

	warm, lockNow, recvNow := make(chan struct{}), make(chan struct{}), make(chan struct{})
	yielder, blocker, blockerIn := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() {
		tid := dimmunix.ThreadID(stacktrace.GoroutineID())
		// The warmup send makes this goroutine rescue's one known sender.
		if err := rescue.Send(0); err != nil {
			yielder <- err
			return
		}
		close(warm)
		<-lockNow
		if err := l1.LockAt(tid, outer1); err != nil { // parks behind l2's hold
			yielder <- err
			return
		}
		err := rescue.Send(1)
		if uerr := l1.UnlockAt(tid); err == nil {
			err = uerr
		}
		yielder <- err
	}()
	<-warm
	if _, _, err := rescue.Recv(); err != nil {
		t.Fatal(err)
	}
	go func() {
		tid := dimmunix.ThreadID(stacktrace.GoroutineID())
		if err := l2.LockAt(tid, outer2); err != nil {
			blockerIn <- err
			return
		}
		blockerIn <- nil
		<-recvNow
		_, _, err := rescue.Recv() // closes the cycle
		if uerr := l2.UnlockAt(tid); err == nil {
			err = uerr
		}
		blocker <- err
	}()
	if err := <-blockerIn; err != nil {
		t.Fatal(err)
	}
	close(lockNow)
	for deadline := time.Now().Add(10 * time.Second); node.Runtime().Stats().Yields != 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the lock of l1 never parked")
		}
	}
	close(recvNow)
	for name, done := range map[string]chan error{"yielder": yielder, "blocker": blocker} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished: the wait+yield cycle was not broken", name)
		}
	}
	st, cs := node.Runtime().Stats(), node.ChanRuntime().Stats()
	if st.AvoidanceBreak != 1 || st.Yields != 1 || cs.AvoidanceBreaks != 0 {
		t.Fatalf("mutex breaks=%d yields=%d, channel breaks=%d; want 1, 1 and 0", st.AvoidanceBreak, st.Yields, cs.AvoidanceBreaks)
	}
	if st.Deadlocks != 0 || cs.Deadlocks != 0 {
		t.Fatalf("deadlocks: mutex %d, channel %d, want 0", st.Deadlocks, cs.Deadlocks)
	}
	if n := node.ChanRuntime().Waiting(); n != 0 {
		t.Fatalf("Waiting() = %d after every op returned, want 0", n)
	}
}

// TestMixedDeadlockDetectedThroughNode pins NewNode's wiring of the one
// detector: a node's mutexes and channels share one waits-for graph. The
// holder of a node mutex blocks on a recv whose one known sender then
// locks that mutex, closing the cycle. The node records one signature
// pairing lock and channel stacks, reports it to OnDeadlock, and refuses
// the closing Lock; the sender then rescues the holder.
func TestMixedDeadlockDetectedThroughNode(t *testing.T) {
	found := make(chan communix.Deadlock, 2) // room for an unexpected second report
	node, err := communix.NewNode(communix.NodeConfig{
		Policy:     communix.RecoverBreak,
		OnDeadlock: func(d communix.Deadlock) { found <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mu := node.NewMutex("knot-mu")
	ch := communix.NewChan[int](node, "knot-ch", 1)

	warm, lockNow := make(chan struct{}), make(chan struct{})
	holder, sender := make(chan error, 1), make(chan error, 1)
	holderID, senderID := make(chan dimmunix.ThreadID, 1), make(chan dimmunix.ThreadID, 1)
	go func() {
		holderID <- dimmunix.ThreadID(stacktrace.GoroutineID())
		<-warm
		if _, _, err := ch.Recv(); err != nil { // the warmup item
			holder <- err
			return
		}
		if err := mu.Lock(); err != nil {
			holder <- err
			return
		}
		_, _, err := ch.Recv() // only the sender can rescue it
		if uerr := mu.Unlock(); err == nil {
			err = uerr
		}
		holder <- err
	}()
	go func() {
		senderID <- dimmunix.ThreadID(stacktrace.GoroutineID())
		if err := ch.Send(0); err != nil {
			sender <- err
			return
		}
		close(warm)
		<-lockNow
		if err := mu.Lock(); !errors.Is(err, communix.ErrDeadlock) { // closes the cycle
			sender <- fmt.Errorf("closing Lock = %v, want ErrDeadlock", err)
			return
		}
		sender <- ch.Send(1)
	}()
	for deadline := time.Now().Add(10 * time.Second); node.ChanRuntime().Waiting() != 1 || ch.Len() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the holder never blocked on its recv")
		}
	}
	close(lockNow)
	for name, done := range map[string]chan error{"holder": holder, "sender": sender} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished", name)
		}
	}
	if n := node.Runtime().Stats().Deadlocks + node.ChanRuntime().Stats().Deadlocks; n != 1 {
		t.Fatalf("deadlocks over both halves = %d, want 1", n)
	}
	var d communix.Deadlock
	select {
	case d = <-found:
	default:
		t.Fatal("OnDeadlock never fired")
	}
	if want := []dimmunix.ThreadID{<-senderID, <-holderID}; !slices.Equal(d.Threads, want) {
		t.Fatalf("cycle = %v, want %v (the closing sender first)", d.Threads, want)
	}
	kinds := map[[2]string]bool{}
	for _, th := range d.Signature.Threads {
		kinds[[2]string{th.Outer.Top().Kind, th.Inner.Top().Kind}] = true
	}
	holderKinds, senderKinds := [2]string{sig.KindLock, sig.KindChanRecv}, [2]string{sig.KindChanSend, sig.KindLock}
	if len(d.Signature.Threads) != 2 || !kinds[holderKinds] || !kinds[senderKinds] {
		t.Fatalf("member (outer, inner) kinds = %v, want %v and %v", kinds, holderKinds, senderKinds)
	}
	if node.History().Get(d.Signature.ID()) == nil {
		t.Error("the mixed signature is not in the node's history")
	}
	data, err := sig.Encode(d.Signature)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sig.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID() != d.Signature.ID() {
		t.Error("codec round trip changed the signature ID")
	}
}

// nodeKnot is the mixed knot on a node: g1 holds mu and then sends on
// the capacity-1 channel ch, g2 holds ch's deposit and then locks mu.
type nodeKnot struct {
	node *communix.Node
	mu   *communix.Mutex
	ch   *communix.Chan[int]
}

// lap1 locks mu, sends on ch, unlocks and receives one item; gate runs
// before the Lock.
func (k nodeKnot) lap1(gate func()) error {
	gate()
	if err := k.mu.Lock(); err != nil {
		return err
	}
	err := k.ch.Send(1)
	if uerr := k.mu.Unlock(); err == nil {
		err = uerr
	}
	if _, _, rerr := k.ch.Recv(); err == nil {
		err = rerr
	}
	return err
}

// lap2 sends on ch, locks and unlocks mu (gate runs before the Lock) and
// receives one item, also after a Lock refused as a deadlock.
func (k nodeKnot) lap2(gate func()) error {
	if err := k.ch.Send(2); err != nil {
		return err
	}
	gate()
	err := k.mu.Lock()
	if err == nil {
		err = k.mu.Unlock()
	}
	if _, _, rerr := k.ch.Recv(); err == nil {
		err = rerr
	}
	return err
}

// runNodeKnot makes one lap of each goroutine apart, which makes each a
// known receiver of ch, and then the knot's schedule: g2 fills ch, g1
// locks, and g2 locks once g1 is blocked on its send or parked at its
// Lock. Without avoidance g2's Lock closes the cycle.
func runNodeKnot(t *testing.T, node *communix.Node) (e1, e2 error) {
	t.Helper()
	k := nodeKnot{node: node, mu: node.NewMutex("knot-mu"), ch: communix.NewChan[int](node, "knot-ch", 1)}
	poll := func(cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond() && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	warm1, warm2 := make(chan struct{}), make(chan struct{})
	d1, d2 := make(chan error, 1), make(chan error, 1)
	go func() {
		err := k.lap1(func() {})
		close(warm1)
		if err == nil {
			<-warm2
			err = k.lap1(func() { poll(func() bool { return k.ch.Len() == 1 }) })
		}
		d1 <- err
	}()
	go func() {
		<-warm1
		err := k.lap2(func() {})
		close(warm2)
		if err == nil {
			err = k.lap2(func() {
				poll(func() bool { return node.ChanRuntime().Waiting() == 1 || node.Runtime().Stats().Yields > 0 })
			})
		}
		d2 <- err
	}()
	return recvErr(t, d1), recvErr(t, d2)
}

// TestMixedKnotImmunityAcrossNodes is collaborative immunity for a
// deadlock through a mutex and a channel: node A hits the knot, detects
// it and uploads the signature, which pairs a lock site with a channel
// site; node B downloads and installs it and runs the same schedule, in
// which g1's Lock yields behind g2's deposit instead of deadlocking.
func TestMixedKnotImmunityAcrossNodes(t *testing.T) {
	addr, auth := startServer(t)
	_, tokenA := auth.Issue()
	_, tokenB := auth.Issue()

	nodeA, err := communix.NewNode(communix.NodeConfig{ServerAddr: addr, Token: tokenA, Policy: communix.RecoverBreak})
	if err != nil {
		t.Fatal(err)
	}
	if e1, e2 := runNodeKnot(t, nodeA); e1 != nil || !errors.Is(e2, communix.ErrDeadlock) {
		nodeA.Close()
		t.Fatalf("node A: g1 %v, g2 %v; want nil and ErrDeadlock", e1, e2)
	}
	nodeA.Close() // drains the upload queue

	nodeB, err := communix.NewNode(communix.NodeConfig{ServerAddr: addr, Token: tokenB, Policy: communix.RecoverBreak})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if _, err := nodeB.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if n, err := nodeB.InstallRepository(); err != nil || n != 1 {
		t.Fatalf("InstallRepository = %d, %v; want the one mixed signature", n, err)
	}
	if e1, e2 := runNodeKnot(t, nodeB); e1 != nil || e2 != nil {
		t.Fatalf("node B: g1 %v, g2 %v", e1, e2)
	}
	st, cs := nodeB.Runtime().Stats(), nodeB.ChanRuntime().Stats()
	if st.Deadlocks != 0 || cs.Deadlocks != 0 || st.Yields == 0 {
		t.Fatalf("node B: deadlocks mutex %d, channel %d; %d mutex yields; want 0, 0 and >= 1", st.Deadlocks, cs.Deadlocks, st.Yields)
	}
}

// TestServerDurableRestart is the acceptance path of the durable server:
// a server with a data directory is shut down and rebuilt over the same
// directory, and the successor serves the byte-identical signature
// sequence to GET(1), still deduplicates pre-restart uploads, and keeps
// assigning consecutive indexes.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := communix.ServerConfig{
		Key: testKey, DataDir: dir, Fsync: "always",
	}
	srv, err := communix.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := communix.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()

	r := rand.New(rand.NewSource(42))
	var sigs []*communix.Signature
	for i := 0; i < 5; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
		req, err := wire.NewAdd(token, s)
		if err != nil {
			t.Fatal(err)
		}
		if resp := srv.Process(req); resp.Status != wire.StatusOK || resp.Detail != "" {
			t.Fatalf("upload %d: %+v", i, resp)
		}
		sigs = append(sigs, s)
	}
	before := srv.Process(wire.NewGet(1))
	if len(before.Sigs) != 5 || before.Next != 6 {
		t.Fatalf("pre-restart GET(1): %d sigs, next %d", len(before.Sigs), before.Next)
	}
	srv.Close()

	restarted, err := communix.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	after := restarted.Process(wire.NewGet(1))
	if len(after.Sigs) != len(before.Sigs) || after.Next != before.Next {
		t.Fatalf("post-restart GET(1): %d sigs next %d, want %d next %d",
			len(after.Sigs), after.Next, len(before.Sigs), before.Next)
	}
	for i := range after.Sigs {
		if string(after.Sigs[i]) != string(before.Sigs[i]) {
			t.Fatalf("signature %d differs across restart", i+1)
		}
	}
	// Pre-restart uploads are still known: re-uploading is a duplicate.
	req, err := wire.NewAdd(token, sigs[2])
	if err != nil {
		t.Fatal(err)
	}
	if resp := restarted.Process(req); resp.Status != wire.StatusOK || resp.Detail != "duplicate" {
		t.Fatalf("re-upload after restart: %+v", resp)
	}
	// New uploads extend the recovered sequence.
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 99, 6, 9)
	req, err = wire.NewAdd(token, s)
	if err != nil {
		t.Fatal(err)
	}
	if resp := restarted.Process(req); resp.Status != wire.StatusOK {
		t.Fatalf("post-restart upload: %+v", resp)
	}
	if resp := restarted.Process(wire.NewGet(6)); len(resp.Sigs) != 1 || resp.Next != 7 {
		t.Fatalf("incremental GET(6) after restart: %d sigs, next %d", len(resp.Sigs), resp.Next)
	}
}

// TestServerRejectsBadFsyncPolicy pins the facade-level validation of
// the Fsync knob.
func TestServerRejectsBadFsyncPolicy(t *testing.T) {
	_, err := communix.NewServer(communix.ServerConfig{
		Key: testKey, DataDir: t.TempDir(), Fsync: "sometimes",
	})
	if err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("bad fsync policy accepted: %v", err)
	}
}

func TestNodeRecheckNestingAfterClassLoad(t *testing.T) {
	// Build an app where nesting proof requires a second class; the node
	// API must surface the pending → accepted transition.
	helperM := &bytecode.Method{Name: "helper", Code: []bytecode.Instr{
		{Op: bytecode.OpMonitorEnter, Line: 20},
		{Op: bytecode.OpMonitorExit, Line: 21},
		{Op: bytecode.OpReturn, Line: 22},
	}}
	mainM := &bytecode.Method{Name: "m", Code: []bytecode.Instr{
		{Op: bytecode.OpMonitorEnter, Line: 10},
		{Op: bytecode.OpInvoke, Callee: bytecode.MethodRef{Class: "B", Method: "helper"}, Line: 11},
		{Op: bytecode.OpMonitorExit, Line: 12},
		{Op: bytecode.OpReturn, Line: 13},
	}}
	app, err := bytecode.NewApp("inc", []*bytecode.Class{
		{Name: "A", Methods: []*bytecode.Method{mainM}},
		{Name: "B", Methods: []*bytecode.Method{helperM}},
	})
	if err != nil {
		t.Fatal(err)
	}
	view := bytecode.NewView(app)
	if err := view.Load("A"); err != nil {
		t.Fatal(err)
	}

	addr, auth := startServer(t)
	_, tokA := auth.Issue()
	_, tokB := auth.Issue()

	// Seed the server with a depth-5 signature whose outer tops are the
	// A.m:10 monitorenter (unprovable as nested until B loads).
	mk := func(lines ...int) communix.Stack {
		var s communix.Stack
		for _, l := range lines {
			s = append(s, app.Frame("A", "m", l))
		}
		return s
	}
	sig5 := buildSig(
		mk(2, 4, 6, 8, 10), mk(2, 4, 6, 8, 11),
		mk(1, 3, 5, 7, 10), mk(1, 3, 5, 7, 12),
	)
	uploadDirect(t, addr, tokA, sig5)

	node, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr, Token: tokB, App: view, AppKey: "inc",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.SyncNow(); err != nil {
		t.Fatal(err)
	}
	rep, err := node.ValidateRepository()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingNesting != 1 {
		t.Fatalf("report = %+v, want 1 pending (B unloaded)", rep)
	}

	if err := view.Load("B"); err != nil {
		t.Fatal(err)
	}
	rep, err = node.RecheckNesting()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 || node.History().Len() != 1 {
		t.Errorf("after class load: report %+v, history %d", rep, node.History().Len())
	}
}
