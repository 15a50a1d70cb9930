// Package wire defines the Communix client↔server protocol (§III-B).
//
// The protocol has two requests: ADD(sig) uploads a newly discovered
// deadlock signature together with the sender's encrypted user id, and
// GET(k) asks for database signatures starting from index k (1-based; a
// client holding n signatures sends GET(n+1), making downloads
// incremental). Messages are length-prefixed JSON over any byte stream.
//
// Every connection opens with HELLO, which negotiates the session
// version. After it every request carries a client-assigned ID echoed by
// the matching response, so several requests can be in flight on one
// connection and be answered out of order. Sessions add SUBSCRIBE(from),
// which registers the session for server-initiated PUSH frames carrying
// signature deltas, and PING, which keeps an idle session verifiably
// alive. PUSH frames are Responses with ID 0 (an ID no request ever
// uses) and Type MsgPush. A server answers a connection whose first
// frame is not HELLO with StatusError and closes it.
//
// Every payload is the JSON json.Marshal writes and json.Unmarshal
// reads. Requests and Responses in the canonical subset (codec.go) go
// through a hand-written codec that writes the same bytes and reads the
// same values; everything else goes through encoding/json. Signatures
// cross the envelope verbatim: a decoded Sig, Sigs element or Entry.Sig
// is a slice of the frame's payload, shared with its neighbours, and
// must not be mutated. Canonical page signatures are decoded where they
// are delimited (Response.DecodedSigs); everything else is delimited and
// decoded by its consumer, which validates it (see ReadMessage).
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"communix/internal/ids"
	"communix/internal/sig"
)

// MsgType enumerates protocol messages.
type MsgType int

// Message types. Values are append-only and frozen once released.
const (
	// MsgAdd is ADD(sig): store a signature.
	MsgAdd MsgType = iota + 1
	// MsgGet is GET(k): fetch signatures from index k (1-based).
	MsgGet
	// MsgHello opens every session: it carries the highest protocol
	// version the client speaks, and the server answers with the version
	// the session will use (the minimum of both sides' maxima).
	MsgHello
	// MsgSubscribe is SUBSCRIBE(from): register this session to
	// receive every database signature with index ≥ from as
	// server-initiated PUSH frames — the backlog first, then live deltas
	// seconds after other users contribute them.
	MsgSubscribe
	// MsgPing is a keepalive: the server answers StatusOK, proving
	// the session (and the server behind it) is still alive.
	MsgPing
	// MsgPush never appears in a request: it tags server-initiated
	// Response frames (ID 0) carrying signature deltas to a subscriber.
	MsgPush
	// MsgReplicate is REPLICATE(from): the replication analogue
	// of SUBSCRIBE. A follower replica registers its session to receive
	// every log entry with index ≥ from as PUSH frames carrying full
	// Entries (signature plus the user/timestamp metadata a replica needs
	// to rebuild dup-set and budget state identically). The request
	// carries the follower's epoch; the ack carries the primary's epoch
	// and fence history. Any cursor is served: the primary's log keeps
	// every committed entry, so this is a follower's only catch-up path.
	MsgReplicate
	// MsgPromote asks a follower to promote itself to primary: it stops
	// following, bumps the epoch (fencing stale peers), and starts
	// accepting ADDs. Like -mint, this
	// is an operator endpoint; production deployments front it with
	// transport-level auth.
	MsgPromote
	// MsgVote is a vote request in an automatic-failover election: a
	// follower that suspects the primary is dead asks its peers for their
	// vote at a proposed epoch (Epoch), carrying its durable log cursor
	// (Cursor), the epoch its last log entry was committed under
	// (LastEpoch), and its node id (Node). A peer grants (StatusOK) at
	// most one vote per epoch — persisted before the reply is sent — and
	// only to a candidate whose (LastEpoch, Cursor) pair is at least its
	// own, compared lexicographically (an equal pair grants; one vote per
	// epoch plus jittered candidacies serialize rivals). The two-part
	// comparison is what makes the rule sound: a stale-epoch primary's
	// divergent tail can be longer than the majority's log, but its last
	// entry's epoch is older, so it can never outrank the voters holding
	// newer acknowledged entries. Rejections carry the voter's epoch and
	// cursor so the candidate learns why it lost.
	MsgVote
	// MsgCursor is a durable-cursor report: a follower replica tells the
	// primary, over its established REPLICATE session, how much of the
	// log it holds durably (Cursor = applied log length; Epoch = the
	// follower's vote bar, the newer of its adopted epoch and any epoch
	// it has voted in). The primary answers StatusOK like a PING — the
	// report doubles as the replication keepalive — and counts only
	// reports whose bar equals its own epoch toward quorum-acknowledged
	// ADDs: a follower that has voted in a newer election stops feeding
	// the old primary's quorum at the moment it grants the vote. Reports
	// outside a REPLICATE session are rejected; the node identity is the
	// one the session registered, never the frame's.
	MsgCursor
	// 11 was SNAPSHOT, a bulk pull for replica bootstrap. It stays
	// reserved and is answered as an unknown type.
	_
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgAdd:
		return "ADD"
	case MsgGet:
		return "GET"
	case MsgHello:
		return "HELLO"
	case MsgSubscribe:
		return "SUBSCRIBE"
	case MsgPing:
		return "PING"
	case MsgPush:
		return "PUSH"
	case MsgReplicate:
		return "REPLICATE"
	case MsgPromote:
		return "PROMOTE"
	case MsgVote:
		return "VOTE"
	case MsgCursor:
		return "CURSOR"
	}
	return fmt.Sprintf("msg(%d)", int(m))
}

// Protocol versions. A HELLO asking for a version below V2 is refused.
const (
	// V2 is the negotiated session: request IDs, SUBSCRIBE/PUSH delta
	// distribution, PING keepalives, and paginated GET replies.
	V2 = 2
	// MaxVersion is the highest version this implementation speaks.
	MaxVersion = V2
)

// Status enumerates reply outcomes.
type Status int

// Statuses.
const (
	// StatusOK: request accepted/served.
	StatusOK Status = iota + 1
	// StatusRejected: the request was understood but refused (failed
	// validation, rate limit, bad token). Detail says why.
	StatusRejected
	// StatusError: the request was malformed.
	StatusError
	// StatusBusy: a quorum-mode server could not (yet) acknowledge the
	// upload — its window of ADDs awaiting a majority is full, or the
	// majority did not arrive in time; the entry is committed locally
	// and the client should back off and retry. A HELLO past the
	// server's session cap gets it too, and the connection is closed.
	// Overload is surfaced to the wire instead of growing an unbounded
	// in-server queue.
	StatusBusy
	// StatusNotPrimary: the request (ADD, or anything else that mutates)
	// reached a follower replica. The reply's Primary field carries the
	// primary's advertised address; the client should redial there and
	// retry. Reads (GET, SUBSCRIBE) are served by every role and never
	// get this status.
	StatusNotPrimary
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRejected:
		return "rejected"
	case StatusError:
		return "error"
	case StatusBusy:
		return "busy"
	case StatusNotPrimary:
		return "not-primary"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Request is one client request.
type Request struct {
	Type MsgType `json:"type"`
	// ID matches this request to its response. Client IDs start at 1;
	// 0 is reserved for server-initiated PUSH frames.
	ID uint64 `json:"id,omitempty"`
	// Token is the sender's encrypted user id; required for ADD, and for
	// SUBSCRIBE when the server enforces per-user subscription quotas.
	Token ids.Token `json:"token,omitempty"`
	// Sig is the uploaded signature (ADD).
	Sig json.RawMessage `json:"sig,omitempty"`
	// From is the 1-based start index (GET, SUBSCRIBE, REPLICATE).
	From int `json:"from,omitempty"`
	// Version is the highest protocol version the sender speaks (HELLO).
	Version int `json:"version,omitempty"`
	// Epoch is the sender's last-adopted promotion epoch (HELLO,
	// REPLICATE). 0 means "no epoch yet" (a fresh peer, or a pre-epoch
	// client) and is always treated as stale. The server's HELLO reply
	// carries its own epoch plus a Fence the peer uses to decide whether
	// its local prefix survived the promotion chain (see docs/PROTOCOL.md,
	// "Epochs and fencing"). On VOTE it is the epoch the candidate stands
	// for; on CURSOR it is the reporter's vote bar — the newer of its
	// adopted epoch and any epoch it has voted in — which the primary
	// requires to equal its own epoch before counting the report.
	Epoch uint64 `json:"epoch,omitempty"`
	// Node identifies the sending replica (REPLICATE), the candidate
	// (VOTE) or the cell member a session speaks for (HELLO) in a
	// replicated cell: its advertised address. Quorum tracking and vote
	// granting only honor nodes named in the receiving server's
	// configured peer list; a HELLO naming a peer or the receiving node
	// itself is admitted past its session cap.
	Node string `json:"node,omitempty"`
	// Cursor is the sender's durable log length: on CURSOR it is the
	// follower's applied cursor, on VOTE the candidate's — the length
	// half of the (LastEpoch, Cursor) election comparison.
	Cursor int `json:"cursor,omitempty"`
	// LastEpoch is the epoch under which the candidate's last log entry
	// was committed (VOTE): the first and decisive half of the election
	// comparison, derived from the fence history (store.LastEntryEpoch).
	// 0 (a pre-field peer) is read as the initial epoch.
	LastEpoch uint64 `json:"last_epoch,omitempty"`
}

// Response is one server reply, or (ID 0, Type MsgPush) one
// server-initiated PUSH frame on a subscribed session.
type Response struct {
	Status Status `json:"status"`
	// ID echoes the request's ID; 0 marks a server-initiated PUSH frame.
	ID uint64 `json:"id,omitempty"`
	// Type is MsgPush on server-initiated frames, zero otherwise.
	Type MsgType `json:"type,omitempty"`
	// Detail explains rejections and errors.
	Detail string `json:"detail,omitempty"`
	// Sigs carries the requested signatures (GET, PUSH).
	Sigs []json.RawMessage `json:"sigs,omitempty"`
	// Next is the index to request next time (GET, PUSH). With
	// More unset this is database size + 1; with More set the reply was
	// truncated at the page cap and Next is where the following page
	// starts. On a StatusOK ADD reply Next is instead the committed log
	// index the upload reached (its assigned index, or the database size
	// for an absorbed duplicate) — the read-your-writes watermark a
	// client pins reads against until its read replica catches up.
	Next int `json:"next,omitempty"`
	// More marks a truncated GET reply (the client should GET(Next) for
	// the rest). On a PUSH frame it is the catch-up downgrade marker:
	// the subscriber lags too far behind for pushing, and must drain via
	// paginated GETs — pushing resumes automatically once a GET reply
	// comes back complete (see docs/PROTOCOL.md, "Backpressure").
	More bool `json:"more,omitempty"`
	// Version is the negotiated session version (HELLO reply).
	Version int `json:"version,omitempty"`
	// Epoch is the server's current promotion epoch (HELLO and REPLICATE
	// replies). A peer whose own epoch is newer must treat this server as
	// a stale primary and refuse it; a peer whose epoch is older fences
	// itself against Fence before adopting the new epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Role is the server's replication role, "primary" or "follower"
	// (HELLO reply). Absent on pre-replication servers, which are
	// implicitly primaries.
	Role string `json:"role,omitempty"`
	// Primary is the primary's advertised address (HELLO replies from
	// followers, and every StatusNotPrimary reply). Empty when the
	// follower has not been configured with one.
	Primary string `json:"primary,omitempty"`
	// Fence is the highest log index guaranteed identical between this
	// server and any peer at the request's (older) epoch: the minimum
	// log length recorded at each promotion between the two epochs. A
	// peer holding more than Fence entries may have a divergent tail and
	// must discard and resynchronize from scratch; a peer at or below it
	// continues from its cursor. Only meaningful on HELLO/REPLICATE
	// replies whose Epoch differs from the request's.
	Fence int `json:"fence,omitempty"`
	// Fences is the server's promotion fence history (REPLICATE and HELLO
	// replies), shipped so a follower adopting a new epoch can later
	// fence its own peers correctly after being promoted itself.
	Fences []EpochFence `json:"fences,omitempty"`
	// Entries carries full log entries on replication PUSH frames — the
	// signature bytes plus the user/timestamp metadata a replica needs to
	// rebuild dup-set, adjacency, and per-user budget state identically.
	Entries []Entry `json:"entries,omitempty"`
	// Cursor is the replying server's own durable log length (VOTE
	// replies): on a rejection it tells the candidate which cursor beat
	// it; on a grant it is informational.
	Cursor int `json:"cursor,omitempty"`

	// decoded holds the signatures the frame decoder decoded from Sigs,
	// index for index; see DecodedSigs.
	decoded []*sig.Signature
}

// DecodedSigs returns the page signatures ReadMessage decoded while
// reading Sigs, index for index: slot i is sig.DecodeShared(Sigs[i])'s
// value, its strings shared with the payload, or nil where the frame
// decoder left Sigs[i] for its consumer to decode — a value outside the
// signature codec's canonical subset, an invalid signature, or anything
// that is not JSON. It returns nil when no signature was decoded, and
// when Sigs no longer has the length ReadMessage gave it. The
// signatures belong to whoever consumes the Response; the client
// repository keeps them.
func (r *Response) DecodedSigs() []*sig.Signature {
	if len(r.decoded) != len(r.Sigs) {
		return nil
	}
	return r.decoded
}

// Entry is one replicated log record: the signature exactly as stored
// plus the commit metadata the primary's WAL carries for it.
type Entry struct {
	// User is the decrypted uploader id the primary attributed the
	// signature to (replicas receive it post-decryption: the replication
	// plane is server↔server and trusted).
	User ids.UserID `json:"user"`
	// Unix is the primary's commit timestamp, seconds. Budget accounting
	// on the replica uses the primary's clock so per-user day buckets
	// match byte for byte.
	Unix int64 `json:"unix"`
	// Sig is the stored signature encoding.
	Sig json.RawMessage `json:"sig"`
}

// EpochFence records one promotion: at the moment epoch E began, the
// new primary's log held N entries. Every index ≤ N is guaranteed
// identical across the epoch boundary; indexes > N may diverge (they
// were commits the failed primary never shipped).
type EpochFence struct {
	E uint64 `json:"e"`
	N int    `json:"n"`
}

// NewAdd builds an ADD request for a signature.
func NewAdd(token ids.Token, s *sig.Signature) (Request, error) {
	data, err := sig.Encode(s)
	if err != nil {
		return Request{}, fmt.Errorf("wire: add: %w", err)
	}
	return Request{Type: MsgAdd, Token: token, Sig: data}, nil
}

// NewGet builds a GET request starting at index from (1-based).
func NewGet(from int) Request {
	if from < 1 {
		from = 1
	}
	return Request{Type: MsgGet, From: from}
}

// NewHello builds the session-opening handshake request.
func NewHello(id uint64) Request {
	return Request{Type: MsgHello, ID: id, Version: MaxVersion}
}

// NewHelloAt builds a HELLO carrying the peer's last-adopted epoch, so
// the reply's Epoch/Fence let the peer detect promotions it missed.
func NewHelloAt(id uint64, epoch uint64) Request {
	return Request{Type: MsgHello, ID: id, Version: MaxVersion, Epoch: epoch}
}

// NewReplicate builds a REPLICATE request: ship log entries from index
// from (1-based) on, to a follower at the given epoch.
func NewReplicate(id uint64, from int, epoch uint64) Request {
	if from < 1 {
		from = 1
	}
	return Request{Type: MsgReplicate, ID: id, From: from, Epoch: epoch}
}

// NewPromote builds a PROMOTE request.
func NewPromote(id uint64) Request {
	return Request{Type: MsgPromote, ID: id}
}

// NewVote builds a VOTE request: the candidate at node asks for a vote
// at the proposed epoch, holding cursor durable log entries of which
// the last was committed under lastEpoch.
func NewVote(id uint64, epoch uint64, cursor int, lastEpoch uint64, node string) Request {
	return Request{Type: MsgVote, ID: id, Epoch: epoch, Cursor: cursor, LastEpoch: lastEpoch, Node: node}
}

// NewCursorReport builds a CURSOR report: the replica holds cursor
// durable log entries and its vote bar (the newer of its adopted epoch
// and any epoch it has voted in) is bar. Sent on the REPLICATE session
// in place of the plain keepalive PING; the node identity is the one
// the session registered at REPLICATE time.
func NewCursorReport(id uint64, cursor int, bar uint64) Request {
	return Request{Type: MsgCursor, ID: id, Cursor: cursor, Epoch: bar}
}

// NewSubscribe builds a SUBSCRIBE request for deltas from index from
// (1-based) on.
func NewSubscribe(id uint64, from int) Request {
	if from < 1 {
		from = 1
	}
	return Request{Type: MsgSubscribe, ID: id, From: from}
}

// NewSubscribeUser builds a SUBSCRIBE carrying the subscriber's user
// token, required by servers enforcing per-user subscription quotas.
func NewSubscribeUser(id uint64, from int, token ids.Token) Request {
	req := NewSubscribe(id, from)
	req.Token = token
	return req
}

// NewPing builds a keepalive request.
func NewPing(id uint64) Request {
	return Request{Type: MsgPing, ID: id}
}

// MaxFrameSize bounds one length-prefixed frame, written or read. Since
// GET replies are paginated (MaxGetBatch/MaxGetBytes), no legitimate
// frame comes close to this: the worst case is one page of MaxGetBytes
// plus a single oversized signature (the signature codec caps one
// encoded signature at 1 MiB) plus envelope overhead. A peer announcing
// a larger frame is refused before its payload is allocated.
const MaxFrameSize = 8 << 20

// Pagination caps for GET replies and PUSH frames. A server reply stops
// adding signatures at whichever cap is hit first and sets More; the
// client keeps requesting Next until a reply comes back without More.
// These are protocol constants — both sides may rely on no compliant
// page exceeding them — but a server may page smaller.
const (
	// MaxGetBatch caps the signature count of one page.
	MaxGetBatch = 256
	// MaxGetBytes caps the summed encoded size of one page's signatures.
	// A single signature larger than the cap still ships alone (pages
	// always make progress).
	MaxGetBytes = 4 << 20
)

// WriteMessage writes v as one length-prefixed JSON frame.
func WriteMessage(w io.Writer, v any) error {
	frame, err := EncodeFrame(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// EncodeFrame marshals v into one complete length-prefixed frame —
// header and payload in a single byte slice, ready for SendEncoded.
//
// The payload is json.Marshal's: a Request or Response in the canonical
// subset (codec.go) is appended field by field, anything else marshaled
// by encoding/json.
func EncodeFrame(v any) ([]byte, error) {
	frame, ok := canonicalFrame(v)
	if !ok {
		return marshalFrame(frame[:0], v)
	}
	return finishFrame(frame, 0)
}

// EncodeStoredFrame is EncodeFrame for a Response whose raw values —
// every Sigs element and Entries[].Sig — are store entries: the bytes
// sig.Encode writes, which json.Marshal copies unchanged and the store
// never modifies after admitting them. It copies them without the
// per-value scan EncodeFrame runs, which is why the server writes every
// reply and PUSH page with it (pages of the append-only log are
// immutable, so the pooled pusher encodes a page once and fans the
// bytes out to every subscriber at the same cursor). For such a
// Response it writes EncodeFrame's bytes; any other raw value breaks
// the contract and may put invalid JSON on the wire. Envelope strings
// are checked as in EncodeFrame.
func EncodeStoredFrame(r Response) ([]byte, error) {
	return AppendStoredFrame(nil, r)
}

// AppendStoredFrame is EncodeStoredFrame appending the frame to dst, so
// a writer can encode every reply into one buffer it reuses. It returns
// the extended slice; on error the slice is nil and dst's bytes are
// unchanged.
func AppendStoredFrame(dst []byte, r Response) ([]byte, error) {
	frame, ok := responseFrame(dst, &r, true)
	if !ok {
		return marshalFrame(frame[:len(dst)], r)
	}
	return finishFrame(frame, len(dst))
}

// marshalFrame appends v's frame, encoded with encoding/json, to dst
// (whose spare capacity may hold the canonical encoder's declined
// attempt).
func marshalFrame(dst []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return finishFrame(append(append(dst, 0, 0, 0, 0), payload...), len(dst))
}

// finishFrame bounds the payload of the frame starting at frame[start]
// and writes its length prefix.
func finishFrame(frame []byte, start int) ([]byte, error) {
	n := len(frame) - start - 4
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[start:start+4], uint32(n))
	return frame, nil
}

// ReadMessage reads one length-prefixed JSON frame into v. A zero
// Request or Response receiving a payload in the canonical subset
// (codec.go) is filled by the frame decoder, and its raw signatures then
// alias the payload: they must not be mutated. Canonical page signatures
// are decoded where they are delimited: each Sigs element that is a
// valid signature in the signature codec's canonical subset is decoded
// as it is read, and kept for the consumer (Response.DecodedSigs).
// Everything else is delimited and decoded by its consumer, so the frame
// decoder also accepts a payload whose only fault is a signature that is
// not JSON; the consumer's signature decoder (repo.Append, processAdd,
// ApplyReplicated) rejects that value. Every other payload reads as
// json.Unmarshal reads it: the same value where json.Unmarshal accepts,
// its error where it rejects.
func ReadMessage(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("wire: read payload: %w", err)
	}
	if decodeCanonical(payload, v) {
		return nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}

// Conn is a convenience wrapper pairing buffered reads with flushing
// writes over one stream.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn wraps a stream.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// Send writes one frame and flushes.
func (c *Conn) Send(v any) error {
	if err := WriteMessage(c.w, v); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// SendEncoded writes one pre-encoded frame (from EncodeFrame or
// EncodeStoredFrame) and flushes.
func (c *Conn) SendEncoded(frame []byte) error {
	if _, err := c.w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Recv reads one frame.
func (c *Conn) Recv(v any) error {
	return ReadMessage(c.r, v)
}

// Hello opens a session on a fresh connection: it sends HELLO with ID 1,
// announcing the caller's last-adopted promotion epoch and the cell
// member it speaks for (node; "" for a client), and reads the reply, so
// the caller's next request uses ID 2. Any reply other than StatusOK at
// version V2 or later is an error; the reply is returned with it, so a
// caller can tell a busy server from a refusal.
func (c *Conn) Hello(epoch uint64, node string) (Response, error) {
	req := NewHelloAt(1, epoch)
	req.Node = node
	if err := c.Send(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := c.Recv(&resp); err != nil {
		return Response{}, err
	}
	if resp.Status != StatusOK || resp.Version < V2 {
		return resp, fmt.Errorf("wire: hello refused: %s: %s", resp.Status, resp.Detail)
	}
	return resp, nil
}
