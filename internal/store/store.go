// Package store implements the Communix server's signature database with
// the server-side validation state of §III-C2: per-user adjacency
// rejection and the per-user daily rate limit.
//
// The database must absorb uploads "from tens of thousands of
// simultaneous threads" (§III-A), so the hot path is partitioned: the
// duplicate-detection set is sharded by signature ID, the per-user
// validation state is sharded by user ID, and commuting ADDs (different
// signatures from different users) proceed on distinct shard locks in
// parallel. Accepted signatures funnel into one append-only log that
// assigns the global 1-based indexes; GET reads a lock-free snapshot of
// that log and never blocks writers. The package's tests hold this
// store to Locked (locked_test.go), the original single-mutex
// implementation, which lives only there as a test oracle.
//
// With Config.DataDir set (use Open, not New), the database is durable:
// every committed batch is written ahead to a CRC-checked segment log
// before it is acknowledged, and Open recovers the directory —
// tolerating a torn final record from a crash mid-write — so the
// accumulated community database outlives the process. The segments are
// the database: none is ever merged or rewritten. See
// docs/ARCHITECTURE.md ("Persistence") for the format and invariants.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
)

// DefaultMaxPerDay is the paper's server-side rate limit: "The server
// processes only up to 10 signatures per day from one user" (§III-C1).
const DefaultMaxPerDay = 10

// DefaultShards is the default partition count for the sharded store.
// Sixteen shards keep commuting ADDs from tens of workers conflict-free
// while the per-shard maps stay dense.
const DefaultShards = 16

// Rejection reasons.
var (
	// ErrRateLimited: the user exceeded the daily signature budget.
	ErrRateLimited = errors.New("store: user exceeded daily signature limit")
	// ErrAdjacent: the user already submitted a signature sharing some
	// (but not all) top frames with this one.
	ErrAdjacent = errors.New("store: adjacent signature from same user")
)

// Config parameterizes a Store.
type Config struct {
	// MaxPerDay caps accepted signatures per user per UTC day; default
	// DefaultMaxPerDay.
	MaxPerDay int
	// Clock injects time for the rate limiter; default time.Now.
	Clock func() time.Time
	// Shards is the number of hash partitions for the duplicate set and
	// the per-user validation state; <= 0 selects DefaultShards. One
	// shard degenerates to (and must behave exactly like) the
	// single-mutex oracle the tests compare against (locked_test.go).
	Shards int
	// DataDir enables durability: accepted signatures are appended to a
	// write-ahead segment log in this directory before they are
	// published, and Open replays the directory on startup. Empty (the
	// default) keeps the store purely in memory.
	DataDir string
	// Fsync selects when the write-ahead log fsyncs (FsyncBatch,
	// FsyncAlways, FsyncOff); meaningful only with DataDir.
	Fsync FsyncPolicy
	// ReadOnly opens DataDir for inspection only: recovery runs, reads
	// work, every mutation returns ErrReadOnly, and no file is created
	// or modified. Requires DataDir.
	ReadOnly bool

	// segmentMaxBytes caps one WAL segment before it is sealed; <= 0
	// selects defaultSegmentMaxBytes. Only tests set it.
	segmentMaxBytes int64
}

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.MaxPerDay <= 0 {
		cfg.MaxPerDay = DefaultMaxPerDay
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.segmentMaxBytes <= 0 {
		cfg.segmentMaxBytes = defaultSegmentMaxBytes
	}
	return cfg
}

// userState is the per-user validation state.
type userState struct {
	// tops holds the top-frame set of every accepted signature, each a
	// sorted slice without duplicates (topKeys).
	tops [][]string
	// day is the UTC day of the current budget window.
	day int64
	// used counts accepted signatures within the window. Rejected
	// signatures do not consume budget: the limit is on signatures the
	// server "processes and adds to its database" (§IV-B).
	used int
}

// check rolls the budget window to today and reports whether a signature
// with the given top frames would be rejected. The caller holds the lock
// guarding u.
func (u *userState) check(tops []string, today int64, maxPerDay int) error {
	if u.day != today {
		u.day = today
		u.used = 0
	}
	if u.used >= maxPerDay {
		return ErrRateLimited
	}
	// Adjacency: reject if this user already sent a signature sharing
	// some but not all top frames (§III-C2).
	for _, prev := range u.tops {
		if partialOverlap(tops, prev) {
			return ErrAdjacent
		}
	}
	return nil
}

// commit records an accepted signature against the budget. The caller
// holds the lock guarding u and has called check.
func (u *userState) commit(tops []string) {
	u.tops = append(u.tops, tops)
	u.used++
}

// topKeys returns the signature's top-frame set (sig.Signature.TopFrames)
// as a sorted slice without duplicates.
func topKeys(s *sig.Signature) []string {
	keys := make([]string, 0, 2*len(s.Threads))
	for _, t := range s.Threads {
		keys = append(keys, t.Outer.Top().Key(), t.Inner.Top().Key())
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// partialOverlap reports whether the two top-frame sets (sorted, without
// duplicates) intersect without being equal — the paper's "adjacent"
// relation. It merges the two slices.
func partialOverlap(a, b []string) bool {
	common := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			common++
			i++
			j++
		}
	}
	if common == 0 {
		return false
	}
	return common != len(a) || common != len(b)
}

// sigShard is one partition of the duplicate-detection set. The pad
// brings the struct to 64 bytes (8 mutex + 8 map + 48) so adjacent
// shards' locks sit on distinct cache lines and never false-share.
type sigShard struct {
	mu      sync.Mutex
	present map[string]struct{}
	_       [48]byte
}

// userShard is one partition of the per-user validation state.
type userShard struct {
	mu    sync.Mutex
	users map[ids.UserID]*userState
	_     [48]byte
}

// Store is the sharded signature database. Accepted signatures get
// consecutive 1-based indexes from a shared append-only log; GET(k)
// returns everything from index k over a lock-free snapshot, making
// client downloads incremental (§III-B) and reads wait-free with respect
// to writers. With Config.DataDir set, every committed batch is appended
// to a write-ahead segment log before it is published, and Open replays
// the directory on startup — the database outlives the process. It is
// safe for concurrent use.
//
// Locking order is sigShard -> userShard -> walMu -> groupMu/log; an ADD
// takes exactly one shard of each kind, so ADDs over different
// signatures and users never contend outside the shared commit step, and
// that step is a group commit (see commit).
type Store struct {
	maxPerDay  int
	clock      func() time.Time
	readOnly   bool
	sigShards  []sigShard
	userShards []userShard
	log        *appendLog

	// walMu serializes committed batches through the persister and keeps
	// the on-disk record order identical to the in-memory index order.
	// nil wal = ephemeral store, commits go straight to the log.
	walMu sync.Mutex
	wal   *persister
	// groupMu guards group, the commit group that durable commits join
	// while an earlier one holds walMu (see commit).
	groupMu sync.Mutex
	group   *commitGroup
	// closed is set under walMu by Close; every mutation after it fails
	// with ErrClosed.
	closed atomic.Bool

	// replMu serializes replicated applies (a follower's single
	// replication loop in practice; the lock makes the cursor arithmetic
	// safe regardless).
	replMu sync.Mutex

	// epochMu guards the replication epoch, fence history, and persisted
	// election vote (meta.go). metaDir is the data directory when
	// durable, "" when ephemeral.
	epochMu    sync.Mutex
	epoch      uint64
	fences     []Fence
	votedEpoch uint64
	votedFor   string
	metaDir    string
}

// New builds an ephemeral in-memory store. Persistence fields of cfg
// (DataDir and friends) are ignored; use Open for a durable store.
func New(cfg Config) *Store {
	cfg.DataDir = ""
	cfg.ReadOnly = false
	st, err := Open(cfg)
	if err != nil {
		// Unreachable: only the persistence path can fail.
		panic(err)
	}
	return st
}

// Open builds a store. With cfg.DataDir set it recovers the directory's
// durable record sequence — every WAL segment (and legacy snapshot) in
// order, tolerating a torn record at the tail of the last segment —
// and replays it into the shards, the per-user validation state, and the
// GET log, so a restarted server serves the identical signature sequence
// and still enforces duplicate, adjacency, and budget decisions made
// before the restart.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{
		maxPerDay:  cfg.MaxPerDay,
		clock:      cfg.Clock,
		readOnly:   cfg.ReadOnly,
		sigShards:  make([]sigShard, cfg.Shards),
		userShards: make([]userShard, cfg.Shards),
		log:        newAppendLog(),
	}
	for i := range st.sigShards {
		st.sigShards[i].present = make(map[string]struct{})
	}
	for i := range st.userShards {
		st.userShards[i].users = make(map[ids.UserID]*userState)
	}
	st.epoch = epochStart
	if cfg.DataDir == "" {
		if cfg.ReadOnly {
			return nil, errors.New("store: ReadOnly requires DataDir")
		}
		return st, nil
	}
	meta, err := loadMeta(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	st.epoch, st.fences = meta.Epoch, meta.Fences
	st.votedEpoch, st.votedFor = meta.VotedEpoch, meta.VotedFor
	st.metaDir = cfg.DataDir

	today := st.clock().UTC().Unix() / 86400
	var recovered []Entry
	wal, err := openPersister(persistConfig{
		dir:      cfg.DataDir,
		policy:   cfg.Fsync,
		segMax:   cfg.segmentMaxBytes,
		readOnly: cfg.ReadOnly,
	}, func(e walEntry) error {
		s, data, err := decodeEntry(e.data)
		if err != nil {
			return err
		}
		id := s.ID()
		sh := st.sigShardOf(id)
		if _, dup := sh.present[id]; dup {
			return fmt.Errorf("duplicate record %s", id)
		}
		sh.present[id] = struct{}{}
		us := st.userShardOf(e.user)
		u, ok := us.users[e.user]
		if !ok {
			u = &userState{}
			us.users[e.user] = u
		}
		u.tops = append(u.tops, topKeys(s))
		// Rebuild the daily budget: only records accepted during the
		// current UTC day still count against it.
		if day := e.unix / 86400; day == today {
			if u.day != today {
				u.day, u.used = today, 0
			}
			u.used++
		}
		recovered = append(recovered, Entry{User: e.user, Unix: e.unix, Data: data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.wal = wal
	st.log.Append(recovered)
	return st, nil
}

// Shards returns the partition count.
func (st *Store) Shards() int { return len(st.sigShards) }

// sigShardOf picks the duplicate-set partition for a signature ID.
// Inline FNV-1a: a hash.Hash32 would heap-allocate on every ADD.
func (st *Store) sigShardOf(id string) *sigShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &st.sigShards[h%uint32(len(st.sigShards))]
}

// userShardOf picks the validation-state partition for a user. The user
// id is mixed (splitmix64 finalizer) so sequentially issued ids spread
// across shards.
func (st *Store) userShardOf(user ids.UserID) *userShard {
	x := uint64(user)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return &st.userShards[x%uint64(len(st.userShards))]
}

// Add validates and stores a signature from the given user. It returns
// (true, nil) when stored, (false, nil) when an identical signature is
// already present (idempotent upload), and (false, err) when rejected.
// On a durable store, (true, err) reports a signature that was accepted
// and published in memory but whose WAL write failed — the caller keeps
// serving it, durability is degraded.
func (st *Store) Add(user ids.UserID, s *sig.Signature) (bool, error) {
	if err := st.writable(); err != nil {
		return false, err
	}
	added, entry, err := st.admit(user, s, nil)
	if !added {
		return added, err
	}
	first, err := st.commit([]walEntry{entry})
	return first > 0, err
}

// writable returns the error every mutation of a read-only or closed
// store fails with, nil otherwise.
func (st *Store) writable() error {
	if st.readOnly {
		return ErrReadOnly
	}
	if st.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Upload is one (user, signature) pair for AddBatch.
type Upload struct {
	// User is the authenticated uploader.
	User ids.UserID
	// Sig is the uploaded signature.
	Sig *sig.Signature
	// Data, when set, is Sig's canonical encoding — byte for byte what
	// sig.Encode writes for it, which the caller vouches for (the server
	// passes a copy of upload bytes sig.DecodeVerbatim reported exact).
	// An accepted upload stores and serves Data itself, keeping its whole
	// backing array alive, so the caller must not modify it afterwards
	// and should not pass a slice of a larger buffer. Nil makes the store
	// encode Sig.
	Data json.RawMessage
}

// AddResult mirrors Add's return values for one AddBatch element.
type AddResult struct {
	// Added reports whether the signature entered the database.
	Added bool
	// Index is the 1-based log index the accepted signature was committed
	// at (0 for duplicates and rejections) — the watermark quorum
	// acknowledgement and client read-your-writes pin against.
	Index int
	// Err is the rejection (or, on a durable store, the WAL failure) for
	// this upload; nil for accepts and idempotent duplicates.
	Err error
}

// AddBatch validates and stores a batch of uploads, committing every
// accepted signature to the WAL and the log as one contiguous run.
// Results are positional. Validation runs per upload under the relevant
// shard locks only; the batch then makes one commit. A WAL write failure
// is reported on every accepted upload of the batch, with Added still
// true (see Add); a store that closed before the commit reports
// ErrClosed with Added false.
func (st *Store) AddBatch(batch []Upload) []AddResult {
	results := make([]AddResult, len(batch))
	if err := st.writable(); err != nil {
		for i := range results {
			results[i] = AddResult{Err: err}
		}
		return results
	}
	entries := make([]walEntry, 0, len(batch))
	for i, up := range batch {
		added, entry, err := st.admit(up.User, up.Sig, up.Data)
		results[i] = AddResult{Added: added, Err: err}
		if added {
			entries = append(entries, entry)
		}
	}
	idx, err := st.commit(entries)
	for i := range results {
		if r := &results[i]; r.Added {
			// idx == 0: the store closed first and published nothing.
			r.Added, r.Index, r.Err = idx > 0, idx, err
			if idx > 0 {
				idx++
			}
		}
	}
	return results
}

// commitGroup is one group commit: the entries of every durable commit
// that queued behind the previous group, in arrival order. The commit
// that opened it (the leader) writes and publishes them; the others
// wait on done.
type commitGroup struct {
	entries []walEntry
	done    sync.WaitGroup
	first   int // 1-based index of entries[0]; 0 when nothing was published
	err     error
}

// commit makes a batch of accepted entries visible: WAL append first
// (write-ahead: nothing is acknowledged before it is on the log), then
// one atomic publish to the in-memory GET log. Both happen under walMu
// so the on-disk record order always matches the in-memory index order.
//
// Durable commits are grouped. A commit that finds walMu free writes
// alone. One that finds it held joins the open group, or opens one and
// waits for walMu as its leader; commits arriving meanwhile join too.
// Once the leader holds walMu it closes the group, writes it with one
// WAL append (one write, at most one fsync under FsyncAlways),
// publishes it in the same order, and hands every member its index. A
// group is exactly the commits that queued behind the previous one: an
// idle store commits alone, a busy one spreads each append over its
// backlog.
//
// The in-memory publish is unconditional — even when the WAL write
// fails, readers of this process see the batch and the error only
// reports lost durability — except on a closed store, which publishes
// nothing and returns ErrClosed. It returns the 1-based log index
// assigned to the batch's first entry (0 when nothing was published).
func (st *Store) commit(entries []walEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	if st.wal == nil {
		if st.closed.Load() {
			return 0, ErrClosed
		}
		return st.log.Append(logEntries(entries)), nil
	}
	if st.walMu.TryLock() {
		defer st.walMu.Unlock()
		return st.writeGroup(entries)
	}
	st.groupMu.Lock()
	g, off := st.group, 0
	leader := g == nil
	if leader {
		// Capped so a member's append never writes into the caller's
		// spare capacity.
		g = &commitGroup{entries: entries[:len(entries):len(entries)]}
		g.done.Add(1)
		st.group = g
	} else {
		off = len(g.entries)
		g.entries = append(g.entries, entries...)
	}
	st.groupMu.Unlock()

	if leader {
		st.walMu.Lock()
		st.groupMu.Lock()
		st.group = nil // later commits queue as the next group
		st.groupMu.Unlock()
		g.first, g.err = st.writeGroup(g.entries)
		st.walMu.Unlock()
		g.done.Done()
	} else {
		g.done.Wait()
	}
	if g.first == 0 {
		return 0, g.err
	}
	return g.first + off, g.err
}

// writeGroup appends a commit group to the WAL and publishes it. The
// caller holds walMu, which is also what Close takes to set closed.
func (st *Store) writeGroup(entries []walEntry) (int, error) {
	if st.closed.Load() {
		return 0, ErrClosed
	}
	err := st.wal.append(entries)
	return st.log.Append(logEntries(entries)), err
}

// decodeEntry decodes a signature read back from the WAL or received
// from the primary. It returns the bytes the log is to keep: data itself
// (which the signature may share) when it is exactly what sig.Encode
// writes, else sig.Encode's bytes. With admit storing only canonical
// bytes, the log holds nothing else (see Get).
func decodeEntry(data []byte) (*sig.Signature, []byte, error) {
	s, exact, err := sig.DecodeVerbatim(data)
	if err != nil || exact {
		return s, data, err
	}
	data, err = sig.Encode(s)
	return s, data, err
}

// logEntries converts WAL entries to the log's exported form.
func logEntries(entries []walEntry) []Entry {
	batch := make([]Entry, len(entries))
	for i, e := range entries {
		batch[i] = Entry{User: e.user, Unix: e.unix, Data: e.data}
	}
	return batch
}

// admit runs every ADD step except the commit: signature validation,
// duplicate detection (sig shard), and rate-limit + adjacency checks
// (user shard). On acceptance it marks the signature present and returns
// the WAL entry (uploader, accept time, encoding) for the caller to
// commit. The encoding is data when set (see Upload.Data), else
// sig.Encode's.
//
// Between admit marking a signature present and the caller's commit
// returning, a concurrent identical upload gets (false, nil), a
// duplicate, while the original is neither published nor on the log.
// The in-memory publish always lands, but durability may not: if the
// WAL write fails, or the process dies before the original is durable
// (on disk, or under -ack quorum on a majority of the cell), the
// duplicate's uploader was told a signature is stored that is then
// lost. ROADMAP.md's item "Acknowledge a duplicate only once its
// original is safe" tracks the fix.
func (st *Store) admit(user ids.UserID, s *sig.Signature, data json.RawMessage) (bool, walEntry, error) {
	if err := s.Valid(); err != nil {
		return false, walEntry{}, fmt.Errorf("store: %w", err)
	}
	id := s.ID()
	tops := topKeys(s)
	now := st.clock().UTC().Unix()
	today := now / 86400

	sh := st.sigShardOf(id)
	sh.mu.Lock()
	if _, dup := sh.present[id]; dup {
		sh.mu.Unlock()
		return false, walEntry{}, nil
	}

	us := st.userShardOf(user)
	us.mu.Lock()
	u, ok := us.users[user]
	if !ok {
		u = &userState{}
		us.users[user] = u
	}
	if err := u.check(tops, today, st.maxPerDay); err != nil {
		us.mu.Unlock()
		sh.mu.Unlock()
		return false, walEntry{}, err
	}
	// Encode only after every check has passed, in the test oracle's
	// order (locked_test.go): duplicates and rejected uploads (the DoS
	// case the daily limit exists for) never pay a marshal. The encode runs under the two shard locks, which only
	// serializes it against same-shard traffic.
	if data == nil {
		var err error
		if data, err = sig.Encode(s); err != nil {
			us.mu.Unlock()
			sh.mu.Unlock()
			return false, walEntry{}, fmt.Errorf("store: %w", err)
		}
	}
	u.commit(tops)
	us.mu.Unlock()

	sh.present[id] = struct{}{}
	sh.mu.Unlock()
	return true, walEntry{user: user, unix: now, data: data}, nil
}

// Get returns the pre-encoded signatures from 1-based index from, plus
// the next index a client should request (database size + 1). from < 1 is
// treated as 1 (the paper's worst-case GET(0): send everything). Get is
// lock-free: it reads an atomic snapshot of the log and never blocks or
// is blocked by concurrent ADDs.
//
// Every signature Get, GetPage and EntryPage return is byte for byte what
// sig.Encode writes for it, and never changes: admit stores only such
// bytes, and Open's replay and ApplyReplicated re-encode any entry that
// is not. A server may therefore write them without checking them again
// (wire.EncodeStoredFrame). They are shared with the log: callers must
// not modify them.
func (st *Store) Get(from int) ([]json.RawMessage, int) {
	return st.log.ReadFrom(from)
}

// GetPage is Get bounded to one reply page: at most maxCount signatures
// summing at most maxBytes encoded bytes (a single oversized signature
// still ships alone, so pages always make progress). It returns the
// page, the next index to request, and whether signatures remain past
// it. Zero caps mean unbounded. Like Get it is lock-free, and its
// signatures are sig.Encode's bytes.
func (st *Store) GetPage(from, maxCount, maxBytes int) ([]json.RawMessage, int, bool) {
	return st.log.ReadPage(from, maxCount, maxBytes)
}

// Len returns the number of stored signatures.
func (st *Store) Len() int { return st.log.Len() }

// Users returns how many distinct users have contributed.
func (st *Store) Users() int {
	total := 0
	for i := range st.userShards {
		us := &st.userShards[i]
		us.mu.Lock()
		total += len(us.users)
		us.mu.Unlock()
	}
	return total
}

// PersistStats reports the store's on-disk state. For an ephemeral store
// only Enabled=false is set.
func (st *Store) PersistStats() PersistStats {
	if st.wal == nil {
		return PersistStats{}
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return st.wal.stats()
}

// Close flushes and closes the write-ahead log and releases the data
// directory. Every later mutation fails with ErrClosed, so nothing can
// write to the directory once another process may own it; reads keep
// working.
func (st *Store) Close() error {
	st.walMu.Lock()
	defer st.walMu.Unlock()
	st.closed.Store(true)
	if st.wal == nil {
		return nil
	}
	return st.wal.close()
}

// ---- Replication interface ----
//
// The append-only log doubles as the replication stream: a follower
// reads full entries (signature bytes + commit metadata) from a cursor
// and applies them through ApplyReplicated, which rebuilds the exact
// validation state — dup set, adjacency tops, per-user budget — the
// primary computed, then commits through the same WAL path an ADD
// takes. See docs/ARCHITECTURE.md ("Replication").

// EntryPage returns one page of full log entries from 1-based index
// from, under the same paging contract as GetPage; each Data is
// sig.Encode's bytes, as Get's are. Any cursor can be served: Open
// replays the whole WAL into the in-memory log and nothing ever trims
// it.
func (st *Store) EntryPage(from, maxCount, maxBytes int) ([]Entry, int, bool) {
	return st.log.EntryPage(from, maxCount, maxBytes)
}

// ApplyReplicated applies a contiguous run of replicated entries whose
// first element has global index from. Entries at or below the current
// length are skipped (idempotent overlap, mirroring repo.Append); a gap
// past the current length is an error. Every entry is validated before
// any is applied: one that is not a valid signature (the frame decoder
// only delimits them), and even a skipped one that is not JSON, fails
// the run with nothing applied. Each new entry then rebuilds the
// validation state exactly as recovery does — duplicate set, per-user
// adjacency tops, and the daily budget using the primary's commit
// timestamps — and the batch commits through the WAL like any accepted
// upload, so a follower's directory is recoverable and re-shippable like
// a primary's. It returns how many entries were newly applied.
func (st *Store) ApplyReplicated(from int, entries []Entry) (int, error) {
	if err := st.writable(); err != nil {
		return 0, err
	}
	st.replMu.Lock()
	defer st.replMu.Unlock()
	cur := st.Len()
	if from > cur+1 {
		return 0, fmt.Errorf("store: replication gap: have %d entries, page starts at %d", cur, from)
	}
	skip := min(max(cur+1-from, 0), len(entries))
	for _, e := range entries[:skip] {
		if !json.Valid(e.Data) {
			return 0, errors.New("store: replicated entry: signature is not JSON")
		}
	}
	entries = entries[skip:]
	if len(entries) == 0 {
		return 0, nil
	}
	sigs := make([]*sig.Signature, len(entries))
	batch := make([]walEntry, len(entries))
	for i, e := range entries {
		s, data, err := decodeEntry(e.Data)
		if err != nil {
			return 0, fmt.Errorf("store: replicated entry: %w", err)
		}
		sigs[i] = s
		batch[i] = walEntry{user: e.User, unix: e.Unix, data: data}
	}
	today := st.clock().UTC().Unix() / 86400
	for i, e := range entries {
		s := sigs[i]
		id := s.ID()
		sh := st.sigShardOf(id)
		sh.mu.Lock()
		if _, dup := sh.present[id]; dup {
			sh.mu.Unlock()
			return 0, fmt.Errorf("store: replicated duplicate %s", id)
		}
		sh.present[id] = struct{}{}
		sh.mu.Unlock()

		us := st.userShardOf(e.User)
		us.mu.Lock()
		u, ok := us.users[e.User]
		if !ok {
			u = &userState{}
			us.users[e.User] = u
		}
		u.tops = append(u.tops, topKeys(s))
		if day := e.Unix / 86400; day == today {
			if u.day != today {
				u.day, u.used = today, 0
			}
			u.used++
		}
		us.mu.Unlock()
	}
	first, err := st.commit(batch)
	if first == 0 {
		return 0, err // nothing new, or the store closed first
	}
	return len(batch), err
}

// ResetReplica discards the store's entire contents — in-memory shards,
// log, and (when durable) every WAL segment and legacy snapshot —
// leaving an empty store at the same epoch, ready to re-replicate from
// index 1.
// Only a follower whose log is longer than its fence calls this; the
// caller is responsible for making sure
// no concurrent writers are active (a follower rejects ADDs, and the
// server drops client sessions around a reset).
func (st *Store) ResetReplica() error {
	if err := st.writable(); err != nil {
		return err
	}
	st.replMu.Lock()
	defer st.replMu.Unlock()
	for i := range st.sigShards {
		sh := &st.sigShards[i]
		sh.mu.Lock()
		sh.present = make(map[string]struct{})
		sh.mu.Unlock()
	}
	for i := range st.userShards {
		us := &st.userShards[i]
		us.mu.Lock()
		us.users = make(map[ids.UserID]*userState)
		us.mu.Unlock()
	}
	st.walMu.Lock()
	defer st.walMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	st.log.Reset()
	if st.wal == nil {
		return nil
	}
	return st.wal.reset()
}

// StateDigest returns a deterministic digest of the store's observable
// state: the signature log (bytes, in index order), the duplicate set,
// and the effective per-user validation state (adjacency top-frame
// sets plus today's remaining budget). Two stores with equal digests
// serve byte-identical GETs and make identical future validation
// decisions — the property the replication differential tests assert.
// Per-user tops are digested as a sorted multiset, so admission order
// differences between concurrent same-user uploads (which never affect
// decisions: adjacency is set-membership, not order) do not change the
// digest. Budget state is normalized to the current UTC day: stale
// windows count as a fresh budget, exactly as check() would treat them.
// Call it on quiescent stores; it takes each shard lock in turn, not a
// global snapshot.
func (st *Store) StateDigest() string {
	h := sha256.New()
	var num [8]byte

	// Log: length + every entry's metadata and bytes in index order.
	entries, _, _ := st.log.EntryPage(1, 0, 0)
	binary.BigEndian.PutUint64(num[:], uint64(len(entries)))
	h.Write(num[:])
	for _, e := range entries {
		binary.BigEndian.PutUint64(num[:], uint64(e.User))
		h.Write(num[:])
		binary.BigEndian.PutUint64(num[:], uint64(e.Unix))
		h.Write(num[:])
		h.Write(e.Data)
	}

	// Duplicate set, sorted.
	var dups []string
	for i := range st.sigShards {
		sh := &st.sigShards[i]
		sh.mu.Lock()
		for id := range sh.present {
			dups = append(dups, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(dups)
	for _, id := range dups {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}

	// Per-user state, sorted by user id: tops as a sorted multiset of
	// canonicalized sets, plus the effective budget for today.
	today := st.clock().UTC().Unix() / 86400
	type userDump struct {
		id   ids.UserID
		tops []string
		used int
	}
	var users []userDump
	for i := range st.userShards {
		us := &st.userShards[i]
		us.mu.Lock()
		for id, u := range us.users {
			d := userDump{id: id}
			for _, set := range u.tops {
				d.tops = append(d.tops, joinFrames(set))
			}
			sort.Strings(d.tops)
			if u.day == today {
				d.used = u.used
			}
			users = append(users, d)
		}
		us.mu.Unlock()
	}
	sort.Slice(users, func(i, j int) bool { return users[i].id < users[j].id })
	for _, d := range users {
		binary.BigEndian.PutUint64(num[:], uint64(d.id))
		h.Write(num[:])
		binary.BigEndian.PutUint64(num[:], uint64(d.used))
		h.Write(num[:])
		for _, t := range d.tops {
			h.Write([]byte(t))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// joinFrames flattens a sorted frame list with an unambiguous
// separator.
func joinFrames(frames []string) string {
	total := 0
	for _, f := range frames {
		total += len(f) + 1
	}
	b := make([]byte, 0, total)
	for _, f := range frames {
		b = append(b, f...)
		b = append(b, '\x1f')
	}
	return string(b)
}
