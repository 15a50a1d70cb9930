// Package communix is a collaborative deadlock immunity framework for Go
// programs, reproducing "Communix: A Framework for Collaborative Deadlock
// Immunity" (Jula, Tözün, Candea — DSN 2011).
//
// Dimmunix (the embedded deadlock-immunity runtime) detects deadlocks at
// run time, fingerprints the execution flows that led to them
// ("signatures"), and steers later schedules away from flows matching
// saved signatures. Communix adds collaboration: a plugin uploads each new
// signature to a central server; a background client on every machine
// periodically downloads new signatures into a local repository; and an
// agent validates the incoming signatures against the running application
// (per-frame code hashes, outer-stack depth ≥ 5, tops must be provably
// nested sync sites) and generalizes them (merging manifestations of one
// bug into the longest common call-stack suffixes). A user's application
// thus becomes immune to deadlocks other users hit, without ever
// deadlocking itself.
//
// # Quick start
//
//	authority, _ := communix.NewAuthority(key)
//	srv, _ := communix.NewServer(communix.ServerConfig{Key: key})
//	go srv.Serve(listener)
//
//	_, token := authority.Issue()
//	node, _ := communix.NewNode(communix.NodeConfig{
//		ServerAddr: listener.Addr().String(),
//		Token:      token,
//	})
//	defer node.Close()
//
//	mu := node.NewMutex("accounts")
//	if err := mu.Lock(); err != nil { ... }
//	defer mu.Unlock()
//
// Go offers no way to interpose on sync.Mutex, so programs opt in by
// using node.NewMutex (native stack capture) or the lower-level
// dimmunix Runtime API (explicit thread/lock/stack events).
package communix

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"communix/internal/agent"
	"communix/internal/client"
	"communix/internal/commdlk"
	"communix/internal/dimmunix"
	"communix/internal/ids"
	"communix/internal/plugin"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/store"
)

// Re-exported core types. The signature model is shared vocabulary
// between all components and the public API.
type (
	// Signature fingerprints one deadlock (outer + inner call stacks per
	// thread).
	Signature = sig.Signature
	// Frame is one call-stack frame (code unit, method, line, unit hash).
	Frame = sig.Frame
	// Stack is a call stack, outermost frame first.
	Stack = sig.Stack
	// ThreadSpec is the per-thread component of a signature.
	ThreadSpec = sig.ThreadSpec
	// Deadlock describes a detected deadlock.
	Deadlock = dimmunix.Deadlock
	// FalsePositiveWarning reports a signature that serializes threads
	// without preventing deadlocks (§III-C1).
	FalsePositiveWarning = dimmunix.FalsePositiveWarning
	// Mutex is a deadlock-immune reentrant mutex.
	Mutex = dimmunix.Mutex
	// Runtime is the Dimmunix lock-management runtime.
	Runtime = dimmunix.Runtime
	// ChanRuntime is the channel-deadlock runtime (waits-for graph over
	// channel ops, detector, avoidance).
	ChanRuntime = commdlk.Runtime
	// Chan is a deadlock-immune channel; create with NewChan.
	Chan[T any] = commdlk.Chan[T]
	// SelectCase is one case of a deadlock-immune Select; build with
	// SendCase or RecvCase.
	SelectCase = commdlk.SelectCase
	// History is the persistent deadlock history.
	History = dimmunix.History
	// Token is an encrypted user id issued by the Communix authority.
	Token = ids.Token
	// UserID identifies one Communix user.
	UserID = ids.UserID
	// Authority mints encrypted user ids.
	Authority = ids.Authority
	// Server is a Communix signature server.
	Server = server.Server
	// AgentReport summarizes one agent validation pass.
	AgentReport = agent.Report
	// Application is the agent's view of the running program (unit
	// hashes + nested sync sites).
	Application = agent.Application
)

// Deadlock recovery policies (what happens to the acquisition that closes
// a detected cycle).
const (
	// RecoverNone keeps deadlocked threads blocked, like the paper's
	// Dimmunix (the user restarts the application).
	RecoverNone = dimmunix.RecoverNone
	// RecoverBreak denies the closing acquisition with ErrDeadlock.
	RecoverBreak = dimmunix.RecoverBreak
)

// Errors surfaced through the public API.
var (
	// ErrDeadlock reports a denied cycle-closing acquisition.
	ErrDeadlock = dimmunix.ErrDeadlock
	// ErrClosed reports use after Close.
	ErrClosed = dimmunix.ErrClosed
	// ErrChanDeadlock reports a denied cycle-closing channel operation.
	ErrChanDeadlock = commdlk.ErrDeadlock
	// ErrChanClosed reports a channel operation released by Close.
	ErrChanClosed = commdlk.ErrClosed
)

// KeySize is the AES key size for user-id encryption (128-bit).
const KeySize = ids.KeySize

// NewAuthority builds the id-issuing authority for the given predefined
// 16-byte AES key.
func NewAuthority(key []byte) (*Authority, error) { return ids.NewAuthority(key) }

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Key is the predefined AES-128 key user tokens are minted under.
	Key []byte
	// MaxPerDay caps accepted signatures per user per day (default 10,
	// §III-C1).
	MaxPerDay int
	// DataDir makes the signature database durable: accepted signatures
	// are written ahead to a segment log in this directory and recovered
	// on the next NewServer. Empty (the default) keeps the database in
	// memory — a restart discards every signature ever contributed.
	DataDir string
	// Fsync selects the write-ahead log's fsync policy: "always" (an
	// acknowledged upload is on stable storage), "batch" (the default:
	// fsync amortized over batches; a crash can lose the last moments),
	// or "off" (never fsync; commits still reach the OS, so they survive
	// a process crash but not a power failure). Meaningful only with
	// DataDir.
	Fsync string
	// GetBatch caps one GET reply (and one PUSH frame) at this many
	// signatures; larger downloads are paginated. 0 = the protocol
	// maximum (256).
	GetBatch int
	// PushMaxLag is how far (in signatures) a subscribed session may lag
	// before the server downgrades it from push delivery to catch-up
	// GETs (default 4 × GetBatch).
	PushMaxLag int
	// MaxSessions caps concurrent client sessions; a surplus HELLO is
	// answered busy and its connection closed. Cell members' own sessions
	// (peers, the operator's promote) are not counted. 0 = unlimited.
	MaxSessions int
	// MaxSubs caps push-admitted subscribers; surplus SUBSCRIBEs are
	// shed to catch-up markers + paginated GETs until a slot frees.
	// 0 = unlimited.
	MaxSubs int
	// Follow starts the server as a follower replica of the primary at
	// this address: it replicates the primary's signature log into its
	// own (durable, when DataDir is set) store, serves downloads and
	// subscriptions, and answers uploads with a redirect to the primary.
	// Promote it to primary with Server.Promote (or the communix-server
	// SIGUSR1 handler / communix-inspect -promote). Empty = primary.
	Follow string
	// Advertise is the address this server tells clients to upload to
	// when it is the primary (carried in HELLO replies). Optional.
	Advertise string
	// AckMode selects the upload acknowledgement contract: "async" (the
	// default — StatusOK once the entry is durable locally) or "quorum"
	// (StatusOK only once a majority of the cell holds the entry, so no
	// acknowledged upload can be lost to a failover).
	AckMode string
	// NodeID names this server inside a replicated cell (cursor-report
	// attribution, election votes). It must match this node's entry in
	// its peers' Peers lists to carry quorum or election weight.
	// Defaults to Advertise.
	NodeID string
	// Peers lists the other members of the replicated cell. Non-empty
	// arms automatic failover: followers elect a replacement primary
	// (majority vote, epoch-fenced) when the primary goes silent, and a
	// superseded primary demotes itself back to follower.
	Peers []string
	// ElectionTimeout is the base failure-detection window before a
	// follower suspects its primary (jittered to [T, 2T); default 10s).
	// Keep it comfortably above PingInterval.
	ElectionTimeout time.Duration
	// PingInterval is the follower's keepalive/cursor-report cadence on
	// the replication session (default 10s).
	PingInterval time.Duration
	// AckTimeout bounds a quorum-mode upload's wait for majority
	// durability before degrading to a busy answer (default 5s).
	AckTimeout time.Duration
	// AckWindow caps quorum-mode uploads awaiting acknowledgement;
	// beyond it ADDs answer busy immediately (default 4096).
	AckWindow int
	// MaxSubsPerUser caps push subscriptions per authenticated user;
	// SUBSCRIBE then requires a valid token. 0 = no per-user cap.
	MaxSubsPerUser int
	// Logf receives operational log lines (replication retries,
	// promotions, elections); nil discards them.
	Logf func(format string, args ...any)
}

// NewServer builds a Communix server. Use Process for direct in-process
// request handling or Serve/ListenAndServe for TCP. With DataDir set the
// server recovers its database from disk before serving and persists
// every accepted signature; call Close to flush the log on shutdown.
func NewServer(cfg ServerConfig) (*Server, error) {
	fsync, err := store.ParseFsyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, fmt.Errorf("communix: %w", err)
	}
	ack, err := server.ParseAckMode(cfg.AckMode)
	if err != nil {
		return nil, fmt.Errorf("communix: %w", err)
	}
	return server.New(server.Config{
		Key:             cfg.Key,
		MaxPerDay:       cfg.MaxPerDay,
		DataDir:         cfg.DataDir,
		Fsync:           fsync,
		GetBatch:        cfg.GetBatch,
		PushMaxLag:      cfg.PushMaxLag,
		MaxSessions:     cfg.MaxSessions,
		MaxSubs:         cfg.MaxSubs,
		MaxSubsPerUser:  cfg.MaxSubsPerUser,
		Follow:          cfg.Follow,
		Advertise:       cfg.Advertise,
		AckMode:         ack,
		NodeID:          cfg.NodeID,
		Peers:           cfg.Peers,
		ElectionTimeout: cfg.ElectionTimeout,
		FollowPing:      cfg.PingInterval,
		AckTimeout:      cfg.AckTimeout,
		AckWindow:       cfg.AckWindow,
		Logf:            cfg.Logf,
	})
}

// NodeConfig parameterizes NewNode — one Communix-protected application
// instance on one machine.
type NodeConfig struct {
	// ServerAddr is the Communix server's TCP address. Leave empty (with
	// Dial unset) for an offline node: Dimmunix immunity still works,
	// signatures are neither uploaded nor downloaded.
	ServerAddr string
	// Peers lists additional server addresses in a replicated deployment
	// (followers and primary, in any order). The node reads from
	// whichever peer answers and follows upload redirects to the
	// primary, so it keeps receiving signatures through any single
	// server failure and keeps uploading across a failover.
	Peers []string
	// Dial overrides connection establishment (in-process servers,
	// tests).
	Dial func() (net.Conn, error)
	// Token is this user's encrypted id, required to upload signatures.
	Token Token
	// HistoryPath persists the deadlock history; empty = in-memory.
	HistoryPath string
	// RepoPath persists the local signature repository; empty =
	// in-memory.
	RepoPath string
	// App is the application view used for client-side validation.
	// Optional: without it the agent is disabled and remote signatures
	// are not installed.
	App Application
	// AppKey identifies the application in repository cursors; defaults
	// to "default".
	AppKey string
	// SyncInterval is the background download period (default 24h, the
	// paper's once-a-day). In Subscribe mode it only caps the backoff
	// between reconnects.
	SyncInterval time.Duration
	// Subscribe switches the node from periodic polling to push
	// delivery: the client holds one session open to the server and new
	// community signatures arrive seconds after another user hits the
	// deadlock, not at the next poll. When the node has an application
	// view (App), each pushed batch is validated and generalized into
	// the history automatically, so protection is live without any call
	// from the application.
	Subscribe bool
	// OnSignatures observes every batch of remote signatures the
	// background loop lands in the repository (after automatic agent
	// validation, when enabled). added is the batch size.
	OnSignatures func(added int)
	// Policy selects deadlock recovery (default RecoverNone).
	Policy dimmunix.RecoveryPolicy
	// OnDeadlock observes detected deadlocks (after the plugin, which
	// only queued the upload). It runs on the thread that closed the
	// cycle. The Deadlock's Signature is the node history's own
	// instance: read it, or Clone it to change it, but never modify it.
	OnDeadlock func(Deadlock)
	// OnFalsePositive observes §III-C1 false-positive warnings.
	OnFalsePositive func(FalsePositiveWarning)
	// DisableAvoidance turns the avoidance module off (detection only).
	DisableAvoidance bool
	// DisableChannelGraph turns channel immunity off entirely: NewChan
	// channels become raw native channels (no capture, no waits-for
	// graph, no detection, no avoidance). The differential reference arm.
	DisableChannelGraph bool
}

// Node is one Communix-protected application instance: a Dimmunix runtime
// with the Communix plugin, background client, and agent wired in.
type Node struct {
	runtime *dimmunix.Runtime
	chans   *commdlk.Runtime
	history *dimmunix.History
	repo    *repo.Repo
	client  *client.Client
	plugin  *plugin.Plugin
	agent   *agent.Agent

	// valMu serializes agent validation passes: the background push
	// hook and the application's explicit ValidateRepository can
	// otherwise race over the same repository cursor.
	valMu sync.Mutex
}

// NewNode assembles a node. Callers must Close it.
func NewNode(cfg NodeConfig) (*Node, error) {
	history, err := loadHistory(cfg.HistoryPath)
	if err != nil {
		return nil, err
	}
	rp, err := repo.Open(cfg.RepoPath)
	if err != nil {
		return nil, fmt.Errorf("communix: %w", err)
	}

	n := &Node{history: history, repo: rp}

	online := cfg.ServerAddr != "" || cfg.Dial != nil
	if online {
		c, err := client.New(client.Config{
			Addr:         cfg.ServerAddr,
			Peers:        cfg.Peers,
			Dial:         cfg.Dial,
			Repo:         rp,
			Token:        cfg.Token,
			SyncInterval: cfg.SyncInterval,
			Subscribe:    cfg.Subscribe,
			// Runs on the client's background goroutine for every batch
			// that lands. In Subscribe mode validation is automatic:
			// the history is updated first (protection goes live without
			// any application involvement), then the application is
			// told. Poll mode keeps the paper's contract — the
			// application validates at startup / after SyncNow.
			OnSignatures: func(added int) {
				if cfg.Subscribe && n.agent != nil {
					n.valMu.Lock()
					before := n.history.Mutations()
					if _, err := n.agent.RunStartup(); err == nil {
						_ = n.saveIfChanged(before)
					}
					n.valMu.Unlock()
				}
				if cfg.OnSignatures != nil {
					cfg.OnSignatures(added)
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("communix: %w", err)
		}
		n.client = c

		var hasher plugin.Hasher
		if cfg.App != nil {
			hasher = cfg.App
		}
		p, err := plugin.New(plugin.Config{Uploader: c, Hasher: hasher})
		if err != nil {
			return nil, fmt.Errorf("communix: %w", err)
		}
		n.plugin = p
	}

	if cfg.App != nil {
		appKey := cfg.AppKey
		if appKey == "" {
			appKey = "default"
		}
		a, err := agent.New(agent.Config{
			App:     cfg.App,
			AppKey:  appKey,
			Repo:    rp,
			History: history,
		})
		if err != nil {
			return nil, fmt.Errorf("communix: %w", err)
		}
		n.agent = a
	}

	onDeadlock := cfg.OnDeadlock
	pluginHook := func(d Deadlock) {
		if n.plugin != nil {
			n.plugin.HandleDeadlock(d)
		}
		// Persist the grown history eagerly; detection is rare.
		_ = history.Save()
		if onDeadlock != nil {
			onDeadlock(d)
		}
	}

	n.runtime = dimmunix.NewRuntime(dimmunix.Config{
		History:           history,
		Policy:            cfg.Policy,
		AvoidanceDisabled: cfg.DisableAvoidance,
		OnDeadlock:        pluginHook,
		OnFalsePositive:   cfg.OnFalsePositive,
	})
	// The channel runtime is built on the node's runtime. They share one
	// history and deadlock hook: one signature set — local or
	// community-pushed — immunizes lock sites and channel sites alike,
	// and channel signatures ride the same upload path. They share one
	// lock, yielder table and yield graph: a wait+yield cycle through
	// mutexes and channels is broken like one through either.
	n.chans = commdlk.NewRuntime(n.runtime, commdlk.Config{GraphDisabled: cfg.DisableChannelGraph})

	if n.client != nil {
		n.client.Start()
	}
	return n, nil
}

func loadHistory(path string) (*dimmunix.History, error) {
	if path == "" {
		return dimmunix.NewHistory(), nil
	}
	h, err := dimmunix.LoadHistory(path)
	if err != nil {
		return nil, fmt.Errorf("communix: %w", err)
	}
	return h, nil
}

// NewMutex creates a deadlock-immune mutex on this node.
func (n *Node) NewMutex(name string) *Mutex { return n.runtime.NewMutex(name) }

// NewChan creates a deadlock-immune channel on node n (a free function
// because Go methods cannot introduce type parameters). name labels the
// channel in diagnostics; capacity is the native buffer size.
func NewChan[T any](n *Node, name string, capacity int) *Chan[T] {
	return commdlk.NewChan[T](n.chans, name, capacity)
}

// Select performs a deadlock-immune select over the cases (build them
// with SendCase / RecvCase): it blocks until one case can proceed and
// returns its index. A blocked Select holds one disjunctive node in the
// waits-for graph — it is deadlocked only if every case is. It is a
// function variable, not a wrapper, so the captured call site is the
// caller's.
var Select = commdlk.Select

// SendCase makes a Select case that sends v on c.
func SendCase[T any](c *Chan[T], v T) SelectCase { return commdlk.SendCase(c, v) }

// RecvCase makes a Select case that receives from c, delivering the
// value to fn (nil discards it; ok is false when c is closed and
// drained).
func RecvCase[T any](c *Chan[T], fn func(v T, ok bool)) SelectCase {
	return commdlk.RecvCase(c, fn)
}

// Runtime exposes the Dimmunix runtime for explicit-event use.
func (n *Node) Runtime() *Runtime { return n.runtime }

// ChanRuntime exposes the channel-deadlock runtime (stats, direct use).
func (n *Node) ChanRuntime() *ChanRuntime { return n.chans }

// History exposes the node's deadlock history.
func (n *Node) History() *History { return n.history }

// SyncNow performs one incremental download from the server immediately
// (the background client also syncs periodically). It returns how many
// signatures arrived.
func (n *Node) SyncNow() (int, error) {
	if n.client == nil {
		return 0, errors.New("communix: node is offline")
	}
	return n.client.SyncOnce()
}

// InstallRepository installs every repository signature not yet
// installed directly into the node's history, skipping bytecode
// validation — the path for communication (channel) signatures, whose
// engagement sites are channel operations rather than the modelled
// application's nested lock sites, so the agent's hash/depth/nesting
// checks do not apply to them. Mutex-site signatures on an App-bearing
// node should go through ValidateRepository instead. It returns how
// many signatures were newly installed, and persists the history when
// the node has a HistoryPath.
func (n *Node) InstallRepository() (int, error) {
	n.valMu.Lock()
	defer n.valMu.Unlock()
	entries := n.repo.NewSince(installKey)
	installed := 0
	through := 0
	for _, e := range entries {
		if n.history.Add(e.Sig) {
			installed++
		}
		through = e.Index + 1
	}
	if through > 0 {
		if err := n.repo.MarkInspected(installKey, through, nil); err != nil {
			return installed, err
		}
	}
	if installed > 0 {
		if err := n.history.Save(); err != nil {
			return installed, err
		}
	}
	return installed, nil
}

// installKey is InstallRepository's repository cursor, distinct from
// any agent AppKey so direct installs and agent validation track their
// positions independently.
const installKey = "communix-direct-install"

// ValidateRepository runs the agent's startup pass: validate new
// repository signatures against the application and generalize them into
// the history (§III-C3, §III-D). Call at application startup and after
// SyncNow. A Subscribe-mode node runs this automatically for every
// pushed batch.
func (n *Node) ValidateRepository() (AgentReport, error) {
	if n.agent == nil {
		return AgentReport{}, errors.New("communix: node has no application view")
	}
	n.valMu.Lock()
	defer n.valMu.Unlock()
	before := n.history.Mutations()
	rep, err := n.agent.RunStartup()
	if err != nil {
		return rep, err
	}
	return rep, n.saveIfChanged(before)
}

// RecheckNesting re-validates signatures that previously failed only the
// nesting check; call after the application loads new code (§III-C3).
func (n *Node) RecheckNesting() (AgentReport, error) {
	if n.agent == nil {
		return AgentReport{}, errors.New("communix: node has no application view")
	}
	n.valMu.Lock()
	defer n.valMu.Unlock()
	before := n.history.Mutations()
	rep, err := n.agent.OnClassesLoaded()
	if err != nil {
		return rep, err
	}
	return rep, n.saveIfChanged(before)
}

// saveIfChanged persists the history if it changed since it counted
// mutations. Saving re-encodes every stored signature, so a pass that
// installed nothing — most pushed batches — leaves the file alone.
func (n *Node) saveIfChanged(mutations uint64) error {
	if n.history.Mutations() == mutations {
		return nil
	}
	return n.history.Save()
}

// Close shuts the node down: pending uploads drain (while the client
// can still carry them), the background distribution loop stops, blocked
// threads are released with ErrClosed, and the history is persisted.
func (n *Node) Close() {
	if n.plugin != nil {
		n.plugin.Close()
	}
	if n.client != nil {
		n.client.Close()
	}
	n.runtime.Close()
	n.chans.Close()
	_ = n.history.Save()
}
