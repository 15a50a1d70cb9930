package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// pageServer is a minimal session server that answers HELLO and PING
// ok, and answers GET(1) — or SUBSCRIBE(1), followed by one PUSH — with
// a page it writes byte for byte, so the page may hold values the frame
// encoder would refuse.
type pageServer struct {
	l    net.Listener
	sigs []string
	next int
}

func newPageServer(t *testing.T, sigs []string, next int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &pageServer{l: l, sigs: sigs, next: next}
	go p.serve()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func (p *pageServer) serve() {
	for {
		conn, err := p.l.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *pageServer) handle(conn net.Conn) {
	defer conn.Close()
	c := wire.NewConn(conn)
	page := fmt.Sprintf(`"sigs":[%s],"next":%d`, strings.Join(p.sigs, ","), p.next)
	for {
		var req wire.Request
		if err := c.Recv(&req); err != nil {
			return
		}
		frames := []string{fmt.Sprintf(`{"status":1,"id":%d}`, req.ID)}
		switch {
		case req.Type == wire.MsgHello:
			frames[0] = fmt.Sprintf(`{"status":1,"id":%d,"version":2,"epoch":1,"role":"primary"}`, req.ID)
		case req.Type == wire.MsgGet && req.From == 1:
			frames[0] = fmt.Sprintf(`{"status":1,"id":%d,%s}`, req.ID, page)
		case req.Type == wire.MsgSubscribe && req.From == 1:
			frames = append(frames, fmt.Sprintf(`{"status":1,"type":6,%s}`, page))
		case req.Type != wire.MsgPing && req.Type != wire.MsgSubscribe:
			frames[0] = fmt.Sprintf(`{"status":3,"id":%d}`, req.ID)
		}
		for _, f := range frames {
			if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, uint32(len(f)))); err != nil {
				return
			}
			if _, err := conn.Write([]byte(f)); err != nil {
				return
			}
		}
	}
}

// pageSigs returns n encoded signatures with bad spliced in at index 1.
func pageSigs(t *testing.T, n int, bad string) []string {
	t.Helper()
	r := rand.New(rand.NewSource(31))
	var out []string
	for i := 0; i < n; i++ {
		data, err := sig.Encode(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	return append(out[:1], append([]string{bad}, out[1:]...)...)
}

func pageToken(t *testing.T) ids.Token {
	t.Helper()
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	return token
}

// mixedPage returns a page that mixes a canonical signature, one laid
// out with whitespace, one that is JSON but invalid (a line 0) and
// another canonical one: the frame decoder decodes the first, second and
// fourth on read, and the repository skips the third.
func mixedPage(t *testing.T) []string {
	t.Helper()
	sigs := pageSigs(t, 3, "")
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, []byte(sigs[2]), "", "  "); err != nil {
		t.Fatal(err)
	}
	lineZero := regexp.MustCompile(`"line":[0-9]+`).ReplaceAllString(sigs[3], `"line":0`)
	return []string{sigs[0], spaced.String(), lineZero, sigs[3]}
}

// checkSameAsAppend: the file-backed repository rp at path holds exactly
// what Append(sigs, next) puts in a fresh one at rp's epoch — the same
// persisted bytes
// (so the same raw signatures and cursor), and the same decoded
// signatures.
func checkSameAsAppend(t *testing.T, name string, rp *repo.Repo, path string, sigs []string, next int) {
	t.Helper()
	refPath := filepath.Join(t.TempDir(), "ref.json")
	ref, err := repo.Open(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetEpoch(rp.Epoch()); err != nil { // adopted from the HELLO ack
		t.Fatal(err)
	}
	raw := make([]json.RawMessage, len(sigs))
	for i, s := range sigs {
		raw[i] = json.RawMessage(s)
	}
	_ = ref.Append(raw, next) // a rejected page is compared too
	got, gotErr := os.ReadFile(path)
	want, wantErr := os.ReadFile(refPath)
	if !bytes.Equal(got, want) || (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s: repository file %.300q (%v); Append writes %.300q (%v)", name, got, gotErr, want, wantErr)
	}
	if rp.Next() != ref.Next() || rp.Len() != ref.Len() {
		t.Errorf("%s: len=%d next=%d; Append gives %d/%d", name, rp.Len(), rp.Next(), ref.Len(), ref.Next())
	}
	if g, w := rp.NewSince("check"), ref.NewSince("check"); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: decoded signatures %v; Append decodes %v", name, g, w)
	}
}

// A GET reply is validated where the repository decodes it: one value
// that is not JSON fails the sync with nothing kept and the cursor
// unmoved; a JSON value that is not a signature is skipped. Signatures
// the frame decoder decoded on read land exactly as Append would have
// decoded them.
func TestSyncValidatesPageInRepo(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sigs    []string
		wantErr bool
		wantLen int
	}{
		{"not JSON", pageSigs(t, 3, `{"threads":[1}]`), true, 0},
		{"not a signature", pageSigs(t, 3, `{"threads":"x"}`), false, 3},
		{"mixed", mixedPage(t), false, 3},
	} {
		next := len(tc.sigs) + 1
		addr := newPageServer(t, tc.sigs, next)
		path := filepath.Join(t.TempDir(), "repo.json")
		rp, err := repo.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(t, addr, pageToken(t), rp)
		_, err = c.SyncOnce()
		c.Close()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: SyncOnce err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		wantNext := next
		if tc.wantErr {
			wantNext = 1
		}
		if rp.Len() != tc.wantLen || rp.Next() != wantNext {
			t.Errorf("%s: len=%d next=%d, want %d/%d", tc.name, rp.Len(), rp.Next(), tc.wantLen, wantNext)
		}
		checkSameAsAppend(t, tc.name, rp, path, tc.sigs, next)
	}
}

// A PUSH page is validated the same way: one value that is not JSON
// keeps nothing and kills the session (its reconnect re-subscribes from
// the unmoved cursor); a JSON value that is not a signature is skipped.
func TestPushValidatesPageInRepo(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sigs    []string
		wantErr bool
	}{
		{"not JSON", pageSigs(t, 3, `{"threads":[1}]`), true},
		{"not a signature", pageSigs(t, 3, `[]`), false},
		{"mixed", mixedPage(t), false},
	} {
		addr := newPageServer(t, tc.sigs, 5)
		path := filepath.Join(t.TempDir(), "repo.json")
		rp, err := repo.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 16)
		added := make(chan int, 16)
		c := newClient(t, addr, pageToken(t), rp, func(cfg *Config) {
			cfg.Subscribe = true
			cfg.OnSync = func(_ int, err error) {
				if err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
			cfg.OnSignatures = func(n int) {
				select {
				case added <- n:
				default:
				}
			}
		})
		c.Start()
		select {
		case err := <-errs:
			if !tc.wantErr || !strings.Contains(err.Error(), "push append") {
				t.Errorf("%s: session failed: %v", tc.name, err)
			}
			if rp.Len() != 0 || rp.Next() != 1 {
				t.Errorf("%s: after a rejected push len=%d next=%d, want 0/1", tc.name, rp.Len(), rp.Next())
			}
		case n := <-added:
			if tc.wantErr || n != 3 || rp.Next() != 5 {
				t.Errorf("%s: push added %d, next %d; want 3 of 4 kept, next 5", tc.name, n, rp.Next())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the pushed page was neither applied nor refused", tc.name)
		}
		c.Close()
		checkSameAsAppend(t, tc.name, rp, path, tc.sigs, 5)
	}
}
