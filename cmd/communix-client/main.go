// Command communix-client runs the Communix background client (§III-B):
// it periodically downloads new deadlock signatures from the server into
// a local repository file, which Communix agents inspect when
// applications start. It is decoupled from applications precisely so
// that application startup never waits on the network.
//
// Usage:
//
//	communix-client -addr 127.0.0.1:9123 -repo /var/lib/communix/repo.json -interval 24h
//	communix-client -addr 127.0.0.1:9123 -repo /var/lib/communix/repo.json -subscribe
//	communix-client -addr primary:9123 -peers replica1:9123,replica2:9123 -subscribe
//
// With -subscribe the client holds one session open and the server
// pushes new signatures the moment other users contribute them —
// time-to-protection drops from poll-interval scale to sub-second. The
// session is kept alive with PINGs and re-established with jittered
// backoff capped at -interval.
//
// -peers lists the other servers of a replicated deployment: the client
// reads from whichever peer answers (rotating away from a dead one) and
// follows upload redirects to the current primary, so downloads survive
// any single server failure and a promoted replica is found without
// reconfiguration.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"communix/internal/client"
	"communix/internal/repo"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:9123", "Communix server address")
	repoPath := flag.String("repo", "communix-repo.json", "local signature repository file")
	interval := flag.Duration("interval", 24*time.Hour, "sync period (the paper syncs once a day); with -subscribe, the reconnect backoff cap")
	once := flag.Bool("once", false, "sync once and exit")
	subscribe := flag.Bool("subscribe", false, "hold a session open and receive pushed deltas instead of polling")
	peers := flag.String("peers", "", "comma-separated additional server addresses (replicated deployment)")
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	rp, err := repo.Open(*repoPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "communix-client: %v\n", err)
		return 1
	}
	c, err := client.New(client.Config{
		Addr:         *addr,
		Peers:        peerList,
		Repo:         rp,
		SyncInterval: *interval,
		Subscribe:    *subscribe,
		OnSync: func(added int, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "communix-client: sync: %v\n", err)
				return
			}
			fmt.Printf("communix-client: downloaded %d new signatures (%d total)\n", added, rp.Len())
		},
		OnSignatures: func(added int) {
			if *subscribe {
				fmt.Printf("communix-client: received %d pushed signatures (%d total)\n", added, rp.Len())
			}
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "communix-client: %v\n", err)
		return 1
	}

	if !*subscribe || *once {
		// Subscribe mode needs no priming sync: the subscription itself
		// streams the backlog first.
		added, err := c.SyncOnce()
		if err != nil {
			fmt.Fprintf(os.Stderr, "communix-client: initial sync: %v\n", err)
			if *once {
				return 1
			}
		} else {
			fmt.Printf("communix-client: downloaded %d new signatures (%d total)\n", added, rp.Len())
		}
	}
	if *once {
		return 0
	}

	c.Start()
	defer c.Close()
	if *subscribe {
		fmt.Printf("communix-client: subscribed to %s for pushed deltas into %s\n", *addr, *repoPath)
	} else {
		fmt.Printf("communix-client: syncing %s every %v into %s\n", *addr, *interval, *repoPath)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Println("communix-client: shutting down")
	return 0
}
