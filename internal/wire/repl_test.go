package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestReplicateRoundTrip(t *testing.T) {
	req := NewReplicate(3, 17, 4)
	if req.Type != MsgReplicate || req.From != 17 || req.Epoch != 4 {
		t.Fatalf("NewReplicate = %+v", req)
	}
	if got := NewReplicate(1, 0, 1); got.From != 1 {
		t.Errorf("NewReplicate clamps From to 1, got %d", got.From)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("round trip changed REPLICATE: %+v != %+v", got, req)
	}
}

func TestPromoteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, NewPromote(9)); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPromote || got.ID != 9 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestReplicationResponseFieldsRoundTrip(t *testing.T) {
	resp := Response{
		Status:  StatusOK,
		ID:      2,
		Epoch:   5,
		Role:    "follower",
		Primary: "primary:9123",
		Fence:   42,
		Fences:  []EpochFence{{E: 2, N: 10}, {E: 5, N: 42}},
		Entries: []Entry{
			{User: 7, Unix: 1_700_000_000, Sig: json.RawMessage(`{"threads":[]}`)},
		},
		Next: 2,
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, resp); err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Errorf("round trip changed response:\n got %+v\nwant %+v", got, resp)
	}
}

// TestReplicationFieldsOmittedWhenEmpty: every replication field is
// omitempty, so pre-replication frames (and the hot PUSH/GET paths) pay
// zero bytes for the feature.
func TestReplicationFieldsOmittedWhenEmpty(t *testing.T) {
	b, err := json.Marshal(Response{Status: StatusOK, Next: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"epoch", "role", "primary", "fence", "entries"} {
		if strings.Contains(string(b), `"`+field+`"`) {
			t.Errorf("empty response leaks %q: %s", field, b)
		}
	}
	rb, err := json.Marshal(NewGet(1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(rb), `"epoch"`) {
		t.Errorf("GET request leaks \"epoch\": %s", rb)
	}
}

func TestStatusNotPrimaryDistinct(t *testing.T) {
	seen := map[Status]bool{}
	for _, s := range []Status{StatusOK, StatusRejected, StatusError, StatusBusy, StatusNotPrimary} {
		if seen[s] {
			t.Fatalf("status %q reused", s)
		}
		seen[s] = true
	}
}
