// Command communix-inspect pretty-prints Communix data: deadlock
// histories (what Dimmunix avoids), local signature repositories (what
// the client downloaded and the agent has or hasn't inspected), server
// data directories (offline, without a running server), and the size of
// a live server's database.
//
// Usage:
//
//	communix-inspect -history history.json
//	communix-inspect -repo repo.json -v
//	communix-inspect -data-dir /var/lib/communix        # offline dump
//	communix-inspect -addr 127.0.0.1:9123               # live size probe
//	communix-inspect -addr 127.0.0.1:9124 -promote      # failover: promote follower
//
// The -data-dir mode opens the directory read-only: it replays the
// snapshot and WAL segments exactly as server startup would (nothing is
// created, truncated, or deleted) and reports the recovered database
// size plus the on-disk layout (segment count, snapshot version). The
// -addr mode asks a running server for its database size with a
// zero-signature incremental GET probe instead of downloading the whole
// database.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"

	"communix/internal/dimmunix"
	"communix/internal/repo"
	"communix/internal/sig"
	"communix/internal/store"
	"communix/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	historyPath := flag.String("history", "", "deadlock history file to inspect")
	repoPath := flag.String("repo", "", "local signature repository to inspect")
	dataDir := flag.String("data-dir", "", "server data directory to inspect offline (read-only)")
	addr := flag.String("addr", "", "running server to probe for its database size")
	promote := flag.Bool("promote", false, "promote the follower at -addr to primary (epoch-fenced failover)")
	verbose := flag.Bool("v", false, "print full call stacks")
	flag.Parse()

	if *historyPath == "" && *repoPath == "" && *dataDir == "" && *addr == "" {
		fmt.Fprintln(os.Stderr, "communix-inspect: pass -history, -repo, -data-dir, and/or -addr")
		return 2
	}
	if *promote && *addr == "" {
		fmt.Fprintln(os.Stderr, "communix-inspect: -promote requires -addr")
		return 2
	}
	if *historyPath != "" {
		if err := inspectHistory(*historyPath, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "communix-inspect: %v\n", err)
			return 1
		}
	}
	if *repoPath != "" {
		if err := inspectRepo(*repoPath, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "communix-inspect: %v\n", err)
			return 1
		}
	}
	if *dataDir != "" {
		if err := inspectDataDir(*dataDir, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "communix-inspect: %v\n", err)
			return 1
		}
	}
	if *addr != "" && *promote {
		if err := promoteServer(*addr); err != nil {
			fmt.Fprintf(os.Stderr, "communix-inspect: %v\n", err)
			return 1
		}
	} else if *addr != "" {
		if err := probeServer(*addr); err != nil {
			fmt.Fprintf(os.Stderr, "communix-inspect: %v\n", err)
			return 1
		}
	}
	return 0
}

// promoteServer asks the follower at addr to promote itself to primary
// (wire.MsgPromote). Like -mint, this is an operator endpoint; front it
// with transport-level auth in production deployments.
func promoteServer(addr string) error {
	conn, c, _, err := openSession(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	resp, err := request(c, wire.NewPromote(2))
	if err != nil {
		return fmt.Errorf("server %s: %w", addr, err)
	}
	fmt.Printf("server %s: promoted, now %s at epoch %d\n", addr, resp.Role, resp.Epoch)
	return nil
}

// openSession dials addr and opens a session with HELLO naming the node
// at addr, so a server at its -max-sessions cap still admits its
// operator; the reply carries the server's role, epoch and primary. The
// caller closes conn and numbers its next request 2.
func openSession(addr string) (net.Conn, *wire.Conn, wire.Response, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, wire.Response{}, err
	}
	c := wire.NewConn(conn)
	hello, err := c.Hello(0, addr)
	if err != nil {
		conn.Close()
		return nil, nil, wire.Response{}, fmt.Errorf("server %s: %w", addr, err)
	}
	return conn, c, hello, nil
}

// request sends req and reads its reply, which must be StatusOK.
func request(c *wire.Conn, req wire.Request) (wire.Response, error) {
	if err := c.Send(req); err != nil {
		return wire.Response{}, err
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		return wire.Response{}, err
	}
	if resp.Status != wire.StatusOK {
		return resp, fmt.Errorf("%s: %s", resp.Status, resp.Detail)
	}
	return resp, nil
}

// inspectDataDir recovers a server data directory read-only and reports
// the database size from the recovered store snapshot plus the on-disk
// stats. Without -v that summary is all it prints — a production
// directory can hold hundreds of thousands of signatures; with -v it
// also dumps every signature with full call stacks.
func inspectDataDir(dir string, verbose bool) error {
	st, err := store.Open(store.Config{DataDir: dir, ReadOnly: true})
	if err != nil {
		return err
	}
	ps := st.PersistStats()
	fmt.Printf("data dir %s: %d signature(s) from %d user(s)\n", dir, st.Len(), st.Users())
	fmt.Printf("  %d segment file(s): %d bytes sealed, %d bytes active\n",
		ps.Segments, ps.SealedBytes, ps.ActiveSegmentBytes)
	if !verbose {
		return nil
	}
	sigs, _ := st.Get(1)
	for i, raw := range sigs {
		s, err := sig.Decode(raw)
		if err != nil {
			return fmt.Errorf("record %d: %w", i+1, err)
		}
		fmt.Printf(" [%d]", i+1)
		printSig(s, verbose)
	}
	return nil
}

// sizeProbeFrom is a GET start index far past any real database size, so
// the reply carries zero signatures but still reveals Next = size + 1
// (see docs/PROTOCOL.md, "Probing the database size"). 1<<30 (a billion
// signatures) stays within int on 32-bit builds.
const sizeProbeFrom = 1 << 30

// probeServer reports a live server's replication role, epoch, and
// database size. The HELLO reply carries role/epoch/primary; the size
// is measured without downloading the database: GET(sizeProbeFrom)
// returns no signatures, only Next.
func probeServer(addr string) error {
	conn, c, hello, err := openSession(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	get := wire.NewGet(sizeProbeFrom)
	get.ID = 2
	resp, err := request(c, get)
	if err != nil {
		return fmt.Errorf("server %s: %w", addr, err)
	}
	role := hello.Role
	if role == "" {
		role = "primary"
	}
	fmt.Printf("server %s: %s at epoch %d, %d signature(s)\n", addr, role, hello.Epoch, resp.Next-1)
	if hello.Primary != "" && role != "primary" {
		fmt.Printf("  primary: %s\n", hello.Primary)
	}
	return nil
}

func inspectHistory(path string, verbose bool) error {
	h, err := dimmunix.LoadHistory(path)
	if err != nil {
		return err
	}
	sigs := h.All()
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].ID() < sigs[j].ID() })
	fmt.Printf("history %s: %d signature(s)\n", path, len(sigs))
	for _, s := range sigs {
		printSig(s, verbose)
	}
	return nil
}

func inspectRepo(path string, verbose bool) error {
	r, err := repo.Open(path)
	if err != nil {
		return err
	}
	fmt.Printf("repository %s: %d signature(s), next server index %d\n", path, r.Len(), r.Next())
	for _, e := range r.NewSince("") {
		fmt.Printf(" [%d]", e.Index)
		printSig(e.Sig, verbose)
	}
	return nil
}

func printSig(s *sig.Signature, verbose bool) {
	fmt.Printf("  %s  %s  threads=%d  minOuterDepth=%d\n",
		s.ID()[:12], s.Origin, s.Size(), s.MinOuterDepth())
	for i, t := range s.Threads {
		if verbose {
			fmt.Printf("    t%d outer: %s\n", i, t.Outer)
			fmt.Printf("    t%d inner: %s\n", i, t.Inner)
		} else {
			fmt.Printf("    t%d outer@%s inner@%s\n", i, t.Outer.Top().Key(), t.Inner.Top().Key())
		}
	}
}
