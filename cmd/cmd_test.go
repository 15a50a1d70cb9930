// Package cmd_test smoke-tests the four binaries end to end: build each
// with the host toolchain, run it against real files and sockets, and
// check the observable behaviour. These are process-level tests; the
// logic they drive is unit-tested in the internal packages.
package cmd_test

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"communix"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// lockedBuffer is an io.Writer safe to read while an exec pipe goroutine
// writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildAll compiles every command once per test binary.
func buildAll(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	dir := t.TempDir()
	for _, name := range []string{"communix-server", "communix-client", "communix-agent", "communix-bench", "communix-inspect"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "communix/cmd/"+name)
		cmd.Dir = repoRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, msg)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(wd) // cmd/ -> repo root
}

const keyHex = "000102030405060708090a0b0c0d0e0f"

// freePort reserves a TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestServerClientAgentPipeline(t *testing.T) {
	bin := buildAll(t)
	addr := freePort(t)

	// Start the server, minting one token.
	server := exec.Command(filepath.Join(bin, "communix-server"),
		"-addr", addr, "-key", keyHex, "-mint", "1")
	var serverOut lockedBuffer
	server.Stdout = &serverOut
	server.Stderr = &serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = server.Process.Signal(os.Interrupt)
		_ = server.Wait()
	}()

	// Wait for it to listen.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(serverOut.String(), "token") {
		t.Fatalf("server did not mint a token:\n%s", serverOut.String())
	}

	// One-shot client sync against the (empty) server.
	dir := t.TempDir()
	repoPath := filepath.Join(dir, "repo.json")
	client := exec.Command(filepath.Join(bin, "communix-client"),
		"-addr", addr, "-repo", repoPath, "-once")
	msg, err := client.CombinedOutput()
	if err != nil {
		t.Fatalf("client: %v\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "downloaded 0 new signatures") {
		t.Errorf("client output: %s", msg)
	}
	if _, err := os.Stat(repoPath); err != nil {
		t.Errorf("repo file not created: %v", err)
	}

	// Agent validation pass over the empty repo.
	agent := exec.Command(filepath.Join(bin, "communix-agent"),
		"-app", "vuze", "-scale", "40",
		"-repo", repoPath, "-history", filepath.Join(dir, "history.json"))
	msg, err = agent.CombinedOutput()
	if err != nil {
		t.Fatalf("agent: %v\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "inspected 0 new signatures") {
		t.Errorf("agent output: %s", msg)
	}
}

func TestServerRejectsBadKey(t *testing.T) {
	bin := buildAll(t)
	cmd := exec.Command(filepath.Join(bin, "communix-server"), "-key", "zz")
	if msg, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("bad key accepted:\n%s", msg)
	}
}

func TestAgentRejectsUnknownApp(t *testing.T) {
	bin := buildAll(t)
	cmd := exec.Command(filepath.Join(bin, "communix-agent"), "-app", "nope")
	if msg, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown app accepted:\n%s", msg)
	}
}

func TestBenchProtectionExperiment(t *testing.T) {
	bin := buildAll(t)
	cmd := exec.Command(filepath.Join(bin, "communix-bench"), "-experiment", "protection")
	msg, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, msg)
	}
	out := string(msg)
	if !strings.Contains(out, "IV-C") || !strings.Contains(out, "speedup") {
		t.Errorf("bench output:\n%s", out)
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	bin := buildAll(t)
	cmd := exec.Command(filepath.Join(bin, "communix-bench"), "-experiment", "fig9")
	if msg, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", msg)
	}
}

func TestInspectEmptyAndMissingFiles(t *testing.T) {
	bin := buildAll(t)
	dir := t.TempDir()

	// No flags: usage error.
	if msg, err := exec.Command(filepath.Join(bin, "communix-inspect")).CombinedOutput(); err == nil {
		t.Errorf("flagless inspect accepted:\n%s", msg)
	}

	// Missing files open as empty stores.
	cmd := exec.Command(filepath.Join(bin, "communix-inspect"),
		"-history", filepath.Join(dir, "h.json"),
		"-repo", filepath.Join(dir, "r.json"))
	msg, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("inspect: %v\n%s", err, msg)
	}
	out := string(msg)
	if !strings.Contains(out, "0 signature(s)") || !strings.Contains(out, "next server index 1") {
		t.Errorf("inspect output:\n%s", out)
	}

	// Corrupt file: clean failure.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg, err := exec.Command(filepath.Join(bin, "communix-inspect"), "-history", bad).CombinedOutput(); err == nil {
		t.Errorf("corrupt history accepted:\n%s", msg)
	}
}

// seedDataDir fills a server data directory with n signatures through
// the facade (the same code path the binary uses) and returns them.
func seedDataDir(t *testing.T, dir string, n int) {
	t.Helper()
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := communix.NewServer(communix.ServerConfig{
		Key: key, DataDir: dir, Fsync: "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	auth, err := communix.NewAuthority(key)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 8)
		req, err := wire.NewAdd(token, s)
		if err != nil {
			t.Fatal(err)
		}
		if resp := srv.Process(req); resp.Status != wire.StatusOK {
			t.Fatalf("seed upload %d: %+v", i, resp)
		}
	}
}

func TestDurableServerRestartAndInspect(t *testing.T) {
	bin := buildAll(t)
	dir := filepath.Join(t.TempDir(), "data")
	seedDataDir(t, dir, 3)

	// Offline inspection: database size from the recovered store plus
	// the on-disk stats — no server, no download.
	msg, err := exec.Command(filepath.Join(bin, "communix-inspect"), "-data-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("inspect -data-dir: %v\n%s", err, msg)
	}
	out := string(msg)
	if !strings.Contains(out, "3 signature(s) from 1 user(s)") {
		t.Errorf("inspect -data-dir output:\n%s", out)
	}
	if !strings.Contains(out, "segment file(s)") {
		t.Errorf("inspect -data-dir should surface on-disk stats:\n%s", out)
	}

	// The server binary recovers the directory on startup...
	addr := freePort(t)
	server := exec.Command(filepath.Join(bin, "communix-server"),
		"-addr", addr, "-key", keyHex, "-data-dir", dir, "-fsync", "always")
	var serverOut lockedBuffer
	server.Stdout = &serverOut
	server.Stderr = &serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = server.Process.Signal(os.Interrupt)
		_ = server.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(serverOut.String(), "recovered 3 signature(s)") {
		t.Errorf("server startup output:\n%s", serverOut.String())
	}

	// ...and the live probe reports its size without a full download.
	msg, err = exec.Command(filepath.Join(bin, "communix-inspect"), "-addr", addr).CombinedOutput()
	if err != nil {
		t.Fatalf("inspect -addr: %v\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "3 signature(s)") {
		t.Errorf("inspect -addr output:\n%s", msg)
	}
}

func TestClientFailsAgainstDeadServer(t *testing.T) {
	bin := buildAll(t)
	cmd := exec.Command(filepath.Join(bin, "communix-client"),
		"-addr", "127.0.0.1:1", "-repo", filepath.Join(t.TempDir(), "r.json"), "-once")
	if msg, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("dead server sync succeeded:\n%s", msg)
	}
}
