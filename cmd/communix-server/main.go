// Command communix-server runs a Communix signature server (§III-A): it
// collects deadlock signatures uploaded by Communix plugins, validates
// them (encrypted sender ids, per-user adjacency, daily rate limit), and
// serves incremental downloads to Communix clients.
//
// Usage:
//
//	communix-server -addr :9123 -key 00112233445566778899aabbccddeeff -mint 3
//	communix-server -addr :9123 -key ... -data-dir /var/lib/communix -fsync always
//	communix-server -addr :9124 -key ... -data-dir /var/lib/communix-r1 -follow primary:9123
//
// -mint prints N freshly issued user tokens at startup (the id-issuing
// service is out of the paper's scope; real deployments gate issuance).
// With -data-dir the signature database is durable: accepted signatures
// are written ahead to a segment log and recovered on restart; -fsync
// picks the durability/throughput trade-off (always, batch, off).
//
// -follow runs the server as a follower replica: it replicates the
// primary's signature log into its own store, serves downloads and
// subscriptions, and redirects uploads to the primary. SIGUSR1 (or
// communix-inspect -promote) promotes a follower to primary during a
// failover; see the README's "Replicated deployment" section.
//
// Every connection opens with HELLO and becomes a persistent session
// that may SUBSCRIBE for pushed signature deltas (session page size and
// the slow-subscriber downgrade threshold are tuned with -get-batch and
// -push-lag); a client HELLO past -max-sessions is answered busy and
// closed (cell peers and communix-inspect are exempt).
// See the Operations section of the README, docs/PROTOCOL.md, and
// docs/ARCHITECTURE.md.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"communix"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:9123", "listen address")
	keyHex := flag.String("key", "", "predefined AES-128 key, 32 hex chars (required)")
	mint := flag.Int("mint", 0, "print N user tokens at startup")
	maxPerDay := flag.Int("max-per-day", 10, "signatures accepted per user per day")
	dataDir := flag.String("data-dir", "", "durable database directory (empty = in-memory only)")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always|batch|off (with -data-dir)")
	getBatch := flag.Int("get-batch", 0, "signatures per GET/PUSH page (0 = protocol max 256)")
	pushLag := flag.Int("push-lag", 0, "subscriber lag before downgrade to catch-up GETs (0 = 4×get-batch)")
	maxSessions := flag.Int("max-sessions", 0, "concurrent client session cap; a surplus HELLO is answered busy and closed, cell peers are exempt (0 = unlimited)")
	maxSubs := flag.Int("max-subs", 0, "push-admitted subscriber cap; surplus subscribers shed to catch-up GETs (0 = unlimited)")
	follow := flag.String("follow", "", "run as a follower replica of the primary at this address (SIGUSR1 promotes to primary)")
	advertise := flag.String("advertise", "", "address clients should upload to when this server is primary (defaults to -addr)")
	ack := flag.String("ack", "async", "upload acknowledgement contract: async|quorum (quorum withholds OK until a majority of the cell holds the entry)")
	peersFlag := flag.String("peers", "", "comma-separated addresses of the other cell members; non-empty arms automatic failover (election on primary silence)")
	electionTimeout := flag.Duration("election-timeout", 0, "base primary-silence window before a follower starts an election, jittered to [T,2T) (0 = default 10s)")
	pingInterval := flag.Duration("ping-interval", 0, "follower keepalive/cursor-report cadence on the replication session (0 = default 10s)")
	ackTimeout := flag.Duration("ack-timeout", 0, "quorum-mode wait for majority durability before an ADD degrades to busy (0 = default 5s)")
	ackWindow := flag.Int("ack-window", 0, "quorum-mode cap on ADDs awaiting acknowledgement; beyond it ADDs answer busy immediately (0 = default 4096)")
	maxSubsPerUser := flag.Int("max-subs-per-user", 0, "push subscriptions per user; SUBSCRIBE then requires a valid token (0 = unlimited)")
	flag.Parse()

	key, err := hex.DecodeString(*keyHex)
	if err != nil || len(key) != communix.KeySize {
		fmt.Fprintln(os.Stderr, "communix-server: -key must be 32 hex characters (128-bit AES key)")
		return 2
	}
	adv := *advertise
	if adv == "" {
		adv = *addr
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}

	srv, err := communix.NewServer(communix.ServerConfig{
		Key:             key,
		MaxPerDay:       *maxPerDay,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		GetBatch:        *getBatch,
		PushMaxLag:      *pushLag,
		MaxSessions:     *maxSessions,
		MaxSubs:         *maxSubs,
		MaxSubsPerUser:  *maxSubsPerUser,
		Follow:          *follow,
		Advertise:       adv,
		AckMode:         *ack,
		Peers:           peers,
		ElectionTimeout: *electionTimeout,
		PingInterval:    *pingInterval,
		AckTimeout:      *ackTimeout,
		AckWindow:       *ackWindow,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "communix-server: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "communix-server: %v\n", err)
		return 1
	}
	if *dataDir != "" {
		fmt.Printf("communix-server: data dir %s (fsync=%s): recovered %d signature(s)\n",
			*dataDir, *fsync, srv.Store().Len())
	}
	if *mint > 0 {
		auth, err := communix.NewAuthority(key)
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-server: %v\n", err)
			return 1
		}
		for i := 0; i < *mint; i++ {
			id, token := auth.Issue()
			fmt.Printf("user %d token %s\n", id, token)
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "communix-server: %v\n", err)
		return 1
	}
	role := "primary"
	if *follow != "" {
		role = fmt.Sprintf("follower of %s", *follow)
	}
	fmt.Printf("communix-server: listening on %s (%s, epoch %d)\n", l.Addr(), role, srv.Store().Epoch())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// SIGUSR1 promotes a follower to primary (epoch bump + fence); the
	// wire-level equivalent is communix-inspect -promote.
	promoteCh := make(chan os.Signal, 1)
	signal.Notify(promoteCh, syscall.SIGUSR1)
	go func() {
		for range promoteCh {
			epoch, err := srv.Promote()
			if err != nil {
				fmt.Fprintf(os.Stderr, "communix-server: promote: %v\n", err)
				continue
			}
			fmt.Printf("communix-server: promoted to primary at epoch %d\n", epoch)
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigCh:
		fmt.Println("communix-server: shutting down")
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-server: %v\n", err)
			return 1
		}
	}
	return 0
}
