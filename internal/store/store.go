// Package store implements the Communix server's signature database with
// the server-side validation state of §III-C2: per-user adjacency
// rejection and the per-user daily rate limit.
//
// Every ADD is admitted in the step that assigns its log index: one
// lock guards the duplicate set, the per-user validation state and the
// append, and concurrent ADDs share it through a group commit whose
// leader admits every member's uploads in arrival order. A duplicate is
// therefore answered only once its original is published, and carries
// its original's index. GET reads a lock-free snapshot of the log and
// never blocks writers. The package's tests hold this store to Locked
// (locked_test.go), a single-mutex implementation that lives only there
// as a test oracle.
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
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"communix/internal/chunk"
	"communix/internal/ids"
	"communix/internal/sig"
)

// DefaultMaxPerDay is the paper's server-side rate limit: "The server
// processes only up to 10 signatures per day from one user" (§III-C1).
const DefaultMaxPerDay = 10

// Rejection reasons.
var (
	// ErrRateLimited: the user exceeded the daily signature budget.
	ErrRateLimited = errors.New("store: user exceeded daily signature limit")
	// ErrAdjacent: the user already submitted a signature sharing some
	// (but not all) top frames with this one.
	ErrAdjacent = errors.New("store: adjacent signature from same user")
	// ErrMalformed: an upload's bytes (Upload.Data) are not a valid
	// signature.
	ErrMalformed = errors.New("store: malformed signature")
)

// Config parameterizes a Store.
type Config struct {
	// MaxPerDay caps accepted signatures per user per UTC day; default
	// DefaultMaxPerDay.
	MaxPerDay int
	// Clock injects time for the rate limiter; default time.Now.
	Clock func() time.Time
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
// with the given top frames would be rejected. The caller holds walMu.
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

// topKeys returns the signature's top-frame set (sig.Signature.TopFrames)
// as a sorted slice without duplicates. The keys share one buffer.
func topKeys(s *sig.Signature) []string {
	n := 0
	for _, t := range s.Threads {
		for _, f := range [2]sig.Frame{t.Outer.Top(), t.Inner.Top()} {
			n += len(f.Class) + len(f.Method) + len(f.Kind) + 8
		}
	}
	buf := make([]byte, 0, n)
	var endsBuf [8]int
	ends := endsBuf[:0]
	for _, t := range s.Threads {
		buf = t.Outer.Top().AppendKey(buf)
		ends = append(ends, len(buf))
		buf = t.Inner.Top().AppendKey(buf)
		ends = append(ends, len(buf))
	}
	all := unsafe.String(unsafe.SliceData(buf), len(buf))
	keys := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
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

// Store is the signature database. Accepted signatures get consecutive
// 1-based indexes from an append-only log; GET(k) returns everything from
// index k over a lock-free snapshot, making client downloads incremental
// (§III-B) and reads wait-free with respect to writers. With
// Config.DataDir set, every committed batch is appended to a write-ahead
// segment log before it is published, and Open replays the directory on
// startup — the database outlives the process. It is safe for concurrent
// use.
//
// Lock order is replMu -> walMu -> groupMu/log. walMu is the admission
// lock: every ADD is decided, indexed, written and published under it,
// and concurrent ADDs share it through a group commit (see commit).
type Store struct {
	maxPerDay int
	clock     func() time.Time
	readOnly  bool
	log       *appendLog

	// walMu guards present, collided and users, assigns log indexes,
	// serializes committed batches through the persister, and keeps the
	// on-disk record order identical to the in-memory index order. nil
	// wal = ephemeral store, commits go straight to the log.
	walMu sync.Mutex
	// present is the duplicate set: the 1-based log index of every
	// committed signature, keyed by entryKey of its canonical bytes. A
	// key is only a hint; a duplicate is an entry with equal bytes (see
	// lookup). When distinct signatures share a key, present maps it to
	// the first and collided holds the later ones' indexes, in log order.
	present  map[uint64]int
	collided map[uint64][]int
	// users is the per-user validation state.
	users map[ids.UserID]*userState
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
// and replays it into the duplicate set, the per-user validation state,
// and the GET log, so a restarted server serves the identical signature
// sequence and still enforces duplicate, adjacency, and budget decisions
// made before the restart. Each file's records are prepared on up to
// GOMAXPROCS goroutines and folded in log order (prepare, fold); the
// first bad record in log order is the one reported.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{
		maxPerDay: cfg.MaxPerDay,
		clock:     cfg.Clock,
		readOnly:  cfg.ReadOnly,
		log:       newAppendLog(),
		present:   make(map[uint64]int),
		users:     make(map[ids.UserID]*userState),
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
	wal, err := openPersister(persistConfig{
		dir:      cfg.DataDir,
		policy:   cfg.Fsync,
		segMax:   cfg.segmentMaxBytes,
		readOnly: cfg.ReadOnly,
	}, func(run []walEntry) (int, error) {
		keys, bad, err := prepare(run)
		if i, orig := st.fold(run[:bad], keys, today); i < bad {
			return i, fmt.Errorf("duplicate record: the signature of record %d", orig)
		}
		st.publish(run[:bad]) // the log only: st.wal is not set yet
		return bad, err
	})
	if err != nil {
		return nil, err
	}
	st.wal = wal
	return st, nil
}

// fold records a prepared run at the end of the log, in index order:
// the duplicate set and the per-user validation state (see record). A run
// holding a signature the store, or an earlier entry of the run, already
// holds is refused whole: fold records nothing and returns that entry's
// position and its original's index. Otherwise it returns len(run). The
// caller publishes the run next, and holds walMu or owns the store alone.
func (st *Store) fold(run []walEntry, keys []prepared, today int64) (int, int) {
	base := st.log.Len() + 1
	for i, e := range run {
		if orig, dup := st.lookup(keys[i].key, e.data, run); dup {
			for j := i - 1; j >= 0; j-- {
				st.unmark(keys[j].key)
			}
			return i, orig
		}
		st.mark(keys[i].key, base+i)
	}
	for i, e := range run {
		st.record(e.user, e.unix, keys[i].tops, today)
	}
	return len(run), 0
}

// lookup returns the index of the committed signature whose canonical
// bytes are data, whose key is key. Entries past the published log are
// pending's, which holds them from the log's end on. The caller holds
// walMu, or owns the store alone.
func (st *Store) lookup(key uint64, data []byte, pending []walEntry) (int, bool) {
	i, ok := st.present[key]
	if !ok {
		return 0, false
	}
	n := st.log.Len()
	at := func(i int) []byte {
		if i > n {
			return pending[i-n-1].data
		}
		return st.log.at(i).Data
	}
	if bytes.Equal(at(i), data) {
		return i, true
	}
	for _, i := range st.collided[key] {
		if bytes.Equal(at(i), data) {
			return i, true
		}
	}
	return 0, false
}

// mark enters the signature committed at index, whose key is key, into
// the duplicate set; unmark takes the latest index marked under key back
// out.
func (st *Store) mark(key uint64, index int) {
	if _, taken := st.present[key]; !taken {
		st.present[key] = index
		return
	}
	if st.collided == nil {
		st.collided = make(map[uint64][]int)
	}
	st.collided[key] = append(st.collided[key], index)
}

func (st *Store) unmark(key uint64) {
	more := st.collided[key]
	switch {
	case len(more) > 1:
		st.collided[key] = more[:len(more)-1]
	case len(more) == 1:
		delete(st.collided, key)
	default:
		delete(st.present, key)
	}
}

// record enters a committed entry into its uploader's validation state:
// its top frames for adjacency and, when it was accepted on day today,
// one unit of that day's budget. Admission, Open's replay and
// ApplyReplicated all record through it. The caller holds walMu, or owns
// the store alone.
func (st *Store) record(user ids.UserID, unix int64, tops []string, today int64) {
	u := st.userOf(user)
	u.tops = append(u.tops, tops)
	if unix/86400 == today {
		if u.day != today {
			u.day, u.used = today, 0
		}
		u.used++
	}
}

// userOf returns a user's validation state, creating it on first use.
// The caller holds walMu, or owns the store alone.
func (st *Store) userOf(user ids.UserID) *userState {
	u, ok := st.users[user]
	if !ok {
		u = &userState{}
		st.users[user] = u
	}
	return u
}

// Add validates and stores a signature from the given user. It returns
// (true, nil) when stored, (false, nil) when an identical signature is
// already present (idempotent upload), and (false, err) when rejected.
// On a durable store, (true, err) reports a signature that was accepted
// and published in memory but whose WAL write failed — the caller keeps
// serving it, durability is degraded.
func (st *Store) Add(user ids.UserID, s *sig.Signature) (bool, error) {
	res := st.AddBatch([]Upload{{User: user, Sig: s}})[0]
	return res.Added, res.Err
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
	// Sig is the uploaded signature, which the store encodes; it is not
	// looked at when Data is set.
	Sig *sig.Signature
	// Data, when set or when Sig is nil, is the upload as its sender
	// encoded it — the server passes a copy of the ADD's bytes. The store
	// decodes it (a failure is ErrMalformed) and stores Data itself when
	// it is exactly what sig.Encode writes, keeping its whole backing
	// array alive, so the caller must not modify it afterwards and should
	// not pass a slice of a larger buffer; other bytes are re-encoded.
	Data json.RawMessage
}

// AddResult mirrors Add's return values for one AddBatch element.
type AddResult struct {
	// Added reports whether the signature entered the database.
	Added bool
	// Index is the 1-based log index the signature was committed at: the
	// upload's own when Added, its original's for a duplicate, 0 for a
	// rejection — the watermark quorum acknowledgement and client
	// read-your-writes pin against.
	Index int
	// Err is the rejection (or, on a durable store, the WAL failure) for
	// this upload; nil for accepts and idempotent duplicates. A WAL
	// failure is also reported on a duplicate whose original was written
	// in the same failed append.
	Err error
}

// AddBatch validates and stores a batch of uploads, committing every
// accepted signature to the WAL and the log as one contiguous run.
// Results are positional. Each upload's canonical bytes, top frames and
// duplicate key are derived first, without any lock (see admission);
// the batch then makes one commit, which admits its uploads in order
// (see commit). A WAL write failure is reported on every accepted upload
// of the batch, with Added still true (see Add); a store that is
// read-only, or closed before the commit, reports ErrReadOnly or
// ErrClosed with Added false on every upload that derived.
func (st *Store) AddBatch(batch []Upload) []AddResult {
	results := make([]AddResult, len(batch))
	now := st.clock().UTC().Unix()
	req := &request{ups: make([]admission, len(batch)), res: results}
	refused := st.writable()
	for i, up := range batch {
		var err error
		if req.ups[i], err = prepareUpload(up, now); err != nil {
			results[i].Err = err
		} else if refused != nil {
			results[i].Err = refused
		}
	}
	if refused == nil {
		st.commit(req)
	}
	return results
}

// admission is one upload prepared for admit outside walMu.
type admission struct {
	prepared
	user ids.UserID
	unix int64  // accept time
	data []byte // canonical encoding
}

// prepareUpload derives what admit needs of one upload accepted at unix
// time now: Sig's encoding, or Data's canonical bytes (derive).
func prepareUpload(up Upload, now int64) (admission, error) {
	a := admission{user: up.User, unix: now}
	var err error
	if up.Sig != nil && up.Data == nil {
		if a.data, err = sig.Encode(up.Sig); err != nil {
			return a, fmt.Errorf("store: %w", err)
		}
		a.prepared = prepared{key: entryKey(a.data), tops: topKeys(up.Sig)}
	} else if a.data, a.prepared, err = derive(up.Data); err != nil {
		return a, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return a, nil
}

// request is one AddBatch call on its way through commit: its uploads
// and their positional results, which the holder of walMu fills in.
// Uploads whose result already carries an error are not admitted.
type request struct {
	ups []admission
	res []AddResult
}

// commitGroup is one group commit: the requests of every durable commit
// that queued behind the previous group, in arrival order. The commit
// that opened it (the leader) admits, writes and publishes them; the
// others wait on done.
type commitGroup struct {
	reqs []*request
	done sync.WaitGroup
}

// commit admits a request's uploads and makes the accepted ones visible,
// all under walMu: the admission decisions, the index assignment, the
// WAL append (write-ahead: nothing is acknowledged before it is on the
// log) and one atomic publish to the in-memory GET log. So the on-disk
// record order always matches the in-memory index order, and a
// duplicate is answered only once its original is published.
//
// Durable commits are grouped. A commit that finds walMu free writes
// alone. One that finds it held joins the open group, or opens one and
// waits for walMu as its leader; commits arriving meanwhile join too.
// Once the leader holds walMu it closes the group, admits every member's
// uploads in arrival order, writes the accepted ones with one WAL append
// (one write, at most one fsync under FsyncAlways), publishes them in
// the same order, and releases the members, whose results it has filled
// in. A group is exactly the commits that queued behind the previous
// one: an idle store commits alone, a busy one spreads each append over
// its backlog. An ephemeral store takes walMu with no group.
func (st *Store) commit(req *request) {
	if st.wal == nil {
		st.walMu.Lock()
	} else if !st.walMu.TryLock() {
		st.joinGroup(req)
		return
	}
	defer st.walMu.Unlock()
	st.writeGroup(req)
}

// joinGroup commits req as part of the open commit group, leading it
// when there is none (see commit).
func (st *Store) joinGroup(req *request) {
	st.groupMu.Lock()
	g := st.group
	leader := g == nil
	if leader {
		g = &commitGroup{}
		g.done.Add(1)
		st.group = g
	}
	g.reqs = append(g.reqs, req)
	st.groupMu.Unlock()
	if !leader {
		g.done.Wait()
		return
	}
	st.walMu.Lock()
	st.groupMu.Lock()
	st.group = nil // later commits queue as the next group
	st.groupMu.Unlock()
	st.writeGroup(g.reqs...)
	st.walMu.Unlock()
	g.done.Done()
}

// writeGroup admits the requests' uploads in order, assigning indexes as
// it goes, then publishes the accepted ones (see publish) and hands every
// upload its result. The publish is unconditional, even when the WAL
// write fails, except on a closed store, where nothing is admitted and
// every upload gets ErrClosed. The caller holds walMu, which is also what
// Close takes to set closed.
func (st *Store) writeGroup(reqs ...*request) {
	closed := st.closed.Load()
	base := st.log.Len()
	var entries []walEntry
	for _, req := range reqs {
		for i := range req.ups {
			res := &req.res[i]
			switch {
			case res.Err != nil: // not a valid signature
			case closed:
				res.Err = ErrClosed
			default:
				var e walEntry
				*res, e = st.admit(&req.ups[i], base+len(entries)+1, entries)
				if res.Added {
					entries = append(entries, e)
				}
			}
		}
	}
	if err := st.publish(entries); err != nil {
		// Every upload at an index this append holds: the accepted ones
		// and the duplicates of them.
		for _, req := range reqs {
			for i := range req.res {
				if res := &req.res[i]; res.Index > base {
					res.Err = err
				}
			}
		}
	}
}

// admit decides one upload in the test oracle's check order
// (locked_test.go): duplicate, then budget, then adjacency. A duplicate
// gets its original's index; pending holds the entries this commit has
// accepted so far, which a duplicate may be of. An accepted upload is
// recorded at index next and its WAL entry returned. The caller holds
// walMu.
func (st *Store) admit(a *admission, next int, pending []walEntry) (AddResult, walEntry) {
	if orig, dup := st.lookup(a.key, a.data, pending); dup {
		return AddResult{Index: orig}, walEntry{}
	}
	today := a.unix / 86400
	if err := st.userOf(a.user).check(a.tops, today, st.maxPerDay); err != nil {
		return AddResult{Err: err}, walEntry{}
	}
	st.mark(a.key, next)
	st.record(a.user, a.unix, a.tops, today)
	return AddResult{Added: true, Index: next}, walEntry{user: a.user, unix: a.unix, data: a.data}
}

// publish appends recorded entries to the WAL, on a durable store, then
// to the GET log. The log append happens even when the WAL write fails:
// readers of this process see the entries, and the error only reports
// lost durability. The caller holds walMu.
func (st *Store) publish(entries []walEntry) error {
	if len(entries) == 0 {
		return nil
	}
	var err error
	if st.wal != nil {
		err = st.wal.append(entries)
	}
	batch := make([]Entry, len(entries))
	for i, e := range entries {
		batch[i] = Entry{User: e.user, Unix: e.unix, Data: e.data}
	}
	st.log.Append(batch)
	return err
}

// prepareChunk is how many entries prepare hands one goroutine at a
// time. A run of one chunk or less, such as a follower's page of a few
// entries, is prepared on the calling goroutine alone.
const prepareChunk = chunk.Size

// prepared is what the store keeps of a signature besides its bytes:
// its duplicate key (entryKey of the canonical bytes) and its top-frame
// keys (topKeys).
type prepared struct {
	key  uint64
	tops []string
}

// prepare is the half of recovery and replication that needs no store
// state: it derives each entry's canonical bytes, which replace its
// data, duplicate key and top-frame keys (derive). The entries are
// independent, so chunk.Run prepares them on up to GOMAXPROCS
// goroutines; the caller then folds the results into the store in index
// order. It returns the results and the position of the first entry
// that failed to decode, with its error: len(run) and nil when none did.
// Results past that position are unspecified.
func prepare(run []walEntry) ([]prepared, int, error) {
	n := len(run)
	out := make([]prepared, n)
	chunks := (n + prepareChunk - 1) / prepareChunk
	bad, errs := make([]int, chunks), make([]error, chunks)
	chunk.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data, p, err := derive(run[i].data)
			if err != nil {
				bad[lo/prepareChunk], errs[lo/prepareChunk] = i, err
				return
			}
			run[i].data, out[i] = data, p
		}
	}, nil)
	for c, err := range errs {
		if err != nil {
			return out, bad[c], err
		}
	}
	return out, n, nil
}

// derive decodes a signature encoding — an upload, a WAL record or a
// replicated entry — in place, and returns what the store keeps of it:
// the bytes the log is to keep, data itself when it is exactly what
// sig.Encode writes, else sig.Encode's bytes, with their duplicate key
// and the signature's top-frame keys. With the log holding only such
// bytes (see Get), equal signatures have equal bytes.
func derive(data []byte) ([]byte, prepared, error) {
	var p prepared
	var encErr error
	err := sig.DecodeInPlace(data, func(s *sig.Signature, exact bool) {
		if !exact {
			data, encErr = sig.Encode(s)
		}
		p.tops = topKeys(s)
	})
	if err == nil {
		err = encErr
	}
	if err != nil {
		return nil, prepared{}, err
	}
	p.key = entryKey(data)
	return data, p, nil
}

// keySeed seeds entryKey for the life of the process.
var keySeed = maphash.MakeSeed()

// entryKey is the duplicate-set key of a signature's canonical bytes.
// Tests replace it to force keys to collide.
var entryKey = func(data []byte) uint64 { return maphash.Bytes(keySeed, data) }

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
	st.walMu.Lock()
	defer st.walMu.Unlock()
	return len(st.users)
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
// past the current length is an error. The whole run is checked before
// any of it is applied: an entry that is not a valid signature (the
// frame decoder only delimits them), even a skipped one that is not
// JSON, or a new entry whose signature the store or the run already
// holds fails the run and leaves no trace. The new entries are then
// prepared and recorded exactly as recovery does it (prepare, fold) —
// duplicate set, per-user adjacency tops, and the daily budget using
// the primary's commit timestamps — and written through the WAL like
// any accepted upload, so
// a follower's directory is recoverable and re-shippable like a
// primary's. It returns how many entries were newly applied.
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
	batch := make([]walEntry, len(entries))
	for i, e := range entries {
		batch[i] = walEntry{user: e.User, unix: e.Unix, data: e.Data}
	}
	keys, _, err := prepare(batch)
	if err != nil {
		return 0, fmt.Errorf("store: replicated entry: %w", err)
	}
	today := st.clock().UTC().Unix() / 86400
	st.walMu.Lock()
	defer st.walMu.Unlock()
	if st.closed.Load() {
		return 0, ErrClosed
	}
	if i, orig := st.fold(batch, keys, today); i < len(batch) {
		return 0, fmt.Errorf("store: replicated entry %d duplicates entry %d", from+skip+i, orig)
	}
	return len(batch), st.publish(batch)
}

// ResetReplica discards the store's entire contents — duplicate set,
// validation state, log, and (when durable) every WAL segment and legacy
// snapshot — leaving an empty store at the same epoch, ready to
// re-replicate from index 1.
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
	st.walMu.Lock()
	defer st.walMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	st.present, st.collided = make(map[uint64]int), nil
	st.users = make(map[ids.UserID]*userState)
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
// Call it on quiescent stores.
func (st *Store) StateDigest() string {
	st.walMu.Lock()
	defer st.walMu.Unlock()
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

	// Duplicate set, sorted: the ID of every logged signature, derived
	// here (the set itself is keyed by canonical bytes). Every logged
	// signature decodes.
	dups := make([]string, 0, len(entries))
	for _, e := range entries {
		_ = sig.DecodeInPlace(e.Data, func(s *sig.Signature, _ bool) { dups = append(dups, s.ID()) })
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
	for id, u := range st.users {
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
