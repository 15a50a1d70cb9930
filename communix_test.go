package communix_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"communix"
	"communix/internal/bytecode"
	"communix/internal/client"
	"communix/internal/dimmunix"
	"communix/internal/repo"
	"communix/internal/sig"
)

var testKey = bytes.Repeat([]byte{0x37}, communix.KeySize)

// startServer runs a TCP Communix server for the test's lifetime.
func startServer(t *testing.T) (addr string, auth *communix.Authority) {
	t.Helper()
	srv, err := communix.NewServer(communix.ServerConfig{Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	auth, err = communix.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return l.Addr().String(), auth
}

// appView builds a tiny modelled application whose two lock sites are
// provably nested, and the matching lock paths. All nodes "run" this same
// application (same class hashes).
func appView(t *testing.T) (*bytecode.App, *bytecode.View, bytecode.LockPath, bytecode.LockPath) {
	t.Helper()
	app, err := bytecode.Generate(bytecode.Profile{
		Name: "shared-app", LOC: 5000, SyncSites: 30, ExplicitOps: 2,
		Analyzed: 24, Nested: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := bytecode.NewView(app)
	view.LoadAll()
	var nested []bytecode.LockPath
	seen := map[string]bool{}
	for _, lp := range app.LockPaths() {
		if lp.Nested && !lp.Opaque && !seen[lp.Outer.Top().Key()] {
			seen[lp.Outer.Top().Key()] = true
			nested = append(nested, lp)
		}
	}
	if len(nested) < 2 {
		t.Fatal("need two nested lock paths")
	}
	return app, view, nested[0], nested[1]
}

// stamp attaches real class hashes to a modelled stack.
func stamp(app *bytecode.App, cs communix.Stack) communix.Stack {
	out := cs.Clone()
	for i := range out {
		out[i] = app.Frame(out[i].Class, out[i].Method, out[i].Line)
	}
	return out
}

// driveDeadlock replays the two lock paths on a node's runtime from two
// threads with the hold-and-wait interleaving, producing (or avoiding)
// the canonical deadlock. Returns the two inner-acquisition errors.
func driveDeadlock(t *testing.T, app *bytecode.App, node *communix.Node, p1, p2 bytecode.LockPath, barrier bool) (error, error) {
	t.Helper()
	rt := node.Runtime()
	lockA := rt.NewLock("A")
	lockB := rt.NewLock("B")

	var bar sync.WaitGroup
	if barrier {
		bar.Add(2)
	}
	run := func(tid dimmunix.ThreadID, first, second *dimmunix.Lock, path bytecode.LockPath, done chan<- error) {
		outer := stamp(app, path.Outer)
		inner := stamp(app, path.Inner)
		if err := rt.Acquire(tid, first, outer); err != nil {
			if barrier {
				bar.Done()
			}
			done <- err
			return
		}
		if barrier {
			bar.Done()
			bar.Wait()
		}
		err := rt.Acquire(tid, second, inner)
		if err == nil {
			_ = rt.Release(tid, second)
		}
		_ = rt.Release(tid, first)
		done <- err
	}
	d1 := make(chan error, 1)
	d2 := make(chan error, 1)
	go run(1, lockA, lockB, p1, d1)
	go run(2, lockB, lockA, p2, d2)
	return recvErr(t, d1), recvErr(t, d2)
}

func recvErr(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for thread")
		return nil
	}
}

// TestCollaborativeImmunityEndToEnd is the paper's headline scenario
// (§I): user A's application deadlocks once; through Communix, user B —
// running the same application — becomes immune without ever
// experiencing the deadlock.
func TestCollaborativeImmunityEndToEnd(t *testing.T) {
	addr, auth := startServer(t)
	app, view, p1, p2 := appView(t)

	_, tokenA := auth.Issue()
	_, tokenB := auth.Issue()

	// --- Machine A: hits the deadlock. ---
	nodeA, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr,
		Token:      tokenA,
		App:        view,
		AppKey:     app.Name,
		Policy:     communix.RecoverBreak,
	})
	if err != nil {
		t.Fatal(err)
	}

	errA1, errA2 := driveDeadlock(t, app, nodeA, p1, p2, true)
	if !errors.Is(errA1, communix.ErrDeadlock) && !errors.Is(errA2, communix.ErrDeadlock) {
		t.Fatal("machine A should deadlock on first encounter")
	}
	if nodeA.History().Len() != 1 {
		t.Fatalf("machine A history = %d, want 1", nodeA.History().Len())
	}
	nodeA.Close() // drains the plugin's upload queue

	// --- Machine B: same application, never deadlocked. ---
	dirB := t.TempDir()
	nodeB, err := communix.NewNode(communix.NodeConfig{
		ServerAddr:  addr,
		Token:       tokenB,
		App:         view,
		AppKey:      app.Name,
		Policy:      communix.RecoverBreak,
		HistoryPath: filepath.Join(dirB, "history.json"),
		RepoPath:    filepath.Join(dirB, "repo.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	// The background client would sync within a day; force it now. The
	// client's immediate first background sync can race this call and
	// win — overlapping syncs are idempotent — so assert on the repo,
	// not on which sync carried the signature.
	if _, err := nodeB.SyncNow(); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	rep, err := nodeB.ValidateRepository()
	if err != nil {
		t.Fatalf("ValidateRepository: %v", err)
	}
	if rep.Accepted != 1 {
		t.Fatalf("agent report = %+v, want 1 accepted", rep)
	}
	if nodeB.History().Len() != 1 {
		t.Fatalf("machine B history = %d, want 1", nodeB.History().Len())
	}

	// Machine B replays the dangerous flow — it must be serialized, not
	// deadlocked.
	deadlocksB := 0
	errB1, errB2 := driveDeadlock(t, app, nodeB, p1, p2, false)
	if errB1 != nil || errB2 != nil {
		t.Fatalf("machine B should complete cleanly: %v / %v", errB1, errB2)
	}
	if got := nodeB.Runtime().Stats().Deadlocks; got != 0 {
		t.Fatalf("machine B deadlocks = %d, want 0 (collaborative immunity)", got)
	}
	_ = deadlocksB

	// Machine B's history survives restart.
	nodeB.Close()
	reloaded, err := dimmunix.LoadHistory(filepath.Join(dirB, "history.json"))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != 1 {
		t.Errorf("persisted history = %d, want 1", reloaded.Len())
	}
}

// TestCollaborativePushImmunity is the same headline scenario over the
// v2 distribution plane: machine B subscribes, machine A deadlocks, and
// B's protection goes live from the pushed delta — automatic agent
// validation included — without B ever calling SyncNow or
// ValidateRepository.
func TestCollaborativePushImmunity(t *testing.T) {
	addr, auth := startServer(t)
	app, view, p1, p2 := appView(t)

	_, tokenA := auth.Issue()
	_, tokenB := auth.Issue()

	// --- Machine B first: subscribed, idle, fully up to date (nothing
	// exists yet). ---
	validated := make(chan int, 16)
	nodeB, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr,
		Token:      tokenB,
		App:        view,
		AppKey:     app.Name,
		Policy:     communix.RecoverBreak,
		Subscribe:  true,
		OnSignatures: func(added int) {
			select {
			case validated <- added:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	// --- Machine A: hits the deadlock; the plugin uploads it. ---
	nodeA, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr,
		Token:      tokenA,
		App:        view,
		AppKey:     app.Name,
		Policy:     communix.RecoverBreak,
	})
	if err != nil {
		t.Fatal(err)
	}
	errA1, errA2 := driveDeadlock(t, app, nodeA, p1, p2, true)
	if !errors.Is(errA1, communix.ErrDeadlock) && !errors.Is(errA2, communix.ErrDeadlock) {
		t.Fatal("machine A should deadlock on first encounter")
	}
	nodeA.Close() // drains the plugin's upload queue

	// The push lands on B, and the facade validates it into the history
	// automatically — protection live seconds (here: milliseconds) after
	// another user's deadlock.
	select {
	case <-validated:
	case <-time.After(15 * time.Second):
		t.Fatal("no pushed signatures arrived at the subscribed node")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && nodeB.History().Len() < 1 {
		time.Sleep(time.Millisecond)
	}
	if nodeB.History().Len() != 1 {
		t.Fatalf("machine B history = %d, want 1 (auto-validated push)", nodeB.History().Len())
	}

	// Machine B replays the dangerous flow — serialized, not deadlocked.
	errB1, errB2 := driveDeadlock(t, app, nodeB, p1, p2, false)
	if errB1 != nil || errB2 != nil {
		t.Fatalf("machine B should complete cleanly: %v / %v", errB1, errB2)
	}
	if got := nodeB.Runtime().Stats().Deadlocks; got != 0 {
		t.Fatalf("machine B deadlocks = %d, want 0 (push-delivered immunity)", got)
	}
}

// TestOfflineNodeStillImmunizesLocally: without a server, Dimmunix-only
// behaviour (detect, fingerprint, avoid on restart) still works.
func TestOfflineNodeStillImmunizesLocally(t *testing.T) {
	app, view, p1, p2 := appView(t)
	dir := t.TempDir()
	histPath := filepath.Join(dir, "history.json")

	node, err := communix.NewNode(communix.NodeConfig{
		App: view, AppKey: app.Name,
		HistoryPath: histPath,
		Policy:      communix.RecoverBreak,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.SyncNow(); err == nil {
		t.Error("offline node SyncNow should error")
	}
	errA, errB := driveDeadlock(t, app, node, p1, p2, true)
	if !errors.Is(errA, communix.ErrDeadlock) && !errors.Is(errB, communix.ErrDeadlock) {
		t.Fatal("expected a deadlock")
	}
	node.Close()

	// Restart: immune from its own history.
	node2, err := communix.NewNode(communix.NodeConfig{
		App: view, AppKey: app.Name,
		HistoryPath: histPath,
		Policy:      communix.RecoverBreak,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if node2.History().Len() != 1 {
		t.Fatalf("history after restart = %d, want 1", node2.History().Len())
	}
	errA, errB = driveDeadlock(t, app, node2, p1, p2, false)
	if errA != nil || errB != nil {
		t.Fatalf("immunized replay failed: %v / %v", errA, errB)
	}
	if got := node2.Runtime().Stats().Deadlocks; got != 0 {
		t.Errorf("deadlocks after restart = %d, want 0", got)
	}
}

// TestMaliciousSignatureContainment: a depth-1 flood from an attacker is
// stopped at the agent even when the server accepted it.
func TestMaliciousSignatureContainment(t *testing.T) {
	addr, auth := startServer(t)
	app, view, p1, p2 := appView(t)
	_, attacker := auth.Issue()
	_, victim := auth.Issue()

	// The attacker uploads a depth-1 signature over the app's real nested
	// sites (valid hashes, valid tops — the §III-C1 slowdown attack).
	atkNode, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr, Token: attacker,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer atkNode.Close()

	shallow := sig.New(
		sig.ThreadSpec{Outer: stamp(app, p1.Outer).Suffix(1), Inner: stamp(app, p1.Inner).Suffix(1)},
		sig.ThreadSpec{Outer: stamp(app, p2.Outer).Suffix(1), Inner: stamp(app, p2.Inner).Suffix(1)},
	)
	uploadDirect(t, addr, attacker, shallow)

	victimNode, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr, Token: victim, App: view, AppKey: app.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer victimNode.Close()
	if _, err := victimNode.SyncNow(); err != nil {
		t.Fatal(err)
	}
	rep, err := victimNode.ValidateRepository()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedDepth != 1 || rep.Accepted != 0 {
		t.Errorf("agent report = %+v; depth-1 attack must be rejected", rep)
	}
	if victimNode.History().Len() != 0 {
		t.Error("attack signature entered the victim's history")
	}
}

// TestPassThatInstallsNothingLeavesHistoryFile: saving a history
// re-encodes every signature it stores, so a node saves after a
// validation pass only when the pass changed the history. The file is
// deleted after the first save; a pass whose only signature the agent
// rejects, and a class-load recheck with nothing pending, must not
// write it again.
func TestPassThatInstallsNothingLeavesHistoryFile(t *testing.T) {
	addr, auth := startServer(t)
	app, view, p1, p2 := appView(t)
	_, first := auth.Issue()
	_, second := auth.Issue()
	histPath := filepath.Join(t.TempDir(), "history.json")
	node, err := communix.NewNode(communix.NodeConfig{
		ServerAddr: addr, App: view, AppKey: app.Name, HistoryPath: histPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	pass := func(upload communix.Token, s *communix.Signature) communix.AgentReport {
		t.Helper()
		uploadDirect(t, addr, upload, s)
		if _, err := node.SyncNow(); err != nil {
			t.Fatal(err)
		}
		rep, err := node.ValidateRepository()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	thread := func(p bytecode.LockPath, depth int) sig.ThreadSpec {
		return sig.ThreadSpec{Outer: stamp(app, p.Outer).Suffix(depth), Inner: stamp(app, p.Inner).Suffix(depth)}
	}

	if rep := pass(first, sig.New(thread(p1, 64), thread(p2, 64))); rep.Added != 1 {
		t.Fatalf("first pass: %+v, want one signature added", rep)
	}
	if _, err := os.Stat(histPath); err != nil {
		t.Fatalf("the pass that added a signature saved no history: %v", err)
	}
	if err := os.Remove(histPath); err != nil {
		t.Fatal(err)
	}
	if rep := pass(second, sig.New(thread(p1, 1), thread(p2, 1))); rep.Inspected != 1 || rep.RejectedDepth != 1 {
		t.Fatalf("second pass: %+v, want one signature inspected and rejected", rep)
	}
	if _, err := node.RecheckNesting(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(histPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("passes that installed nothing wrote the history file (stat: %v)", err)
	}
}

// uploadDirect pushes a signature to the server as an attacker's plugin
// would.
func uploadDirect(t *testing.T, addr string, token communix.Token, s *communix.Signature) {
	t.Helper()
	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.Config{Addr: addr, Repo: rp, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Upload(s); err != nil {
		t.Fatalf("upload: %v", err)
	}
}
