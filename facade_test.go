package communix_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"communix"
	"communix/internal/bytecode"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
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
