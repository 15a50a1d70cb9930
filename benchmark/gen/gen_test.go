package gen

import (
	"sort"
	"testing"

	"communix"
)

// schedules builds every plan of a seed at test size and condenses them.
func schedules(t *testing.T, seed int64) string {
	t.Helper()
	app, err := NewApp(seed, 24)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Ingest(seed, 0, 2, 100, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := app.Catchup(seed, 200)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := Lock(seed, 64, 32, 6, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Digest(app.Sites, app.Flows(seed, 60), ing, cat, lock)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSeedFixesEverySchedule(t *testing.T) {
	a, b, c := schedules(t, 7), schedules(t, 7), schedules(t, 8)
	if a != b {
		t.Errorf("same seed gave different schedules: %s vs %s", a, b)
	}
	if a == c {
		t.Error("different seeds gave the same schedules")
	}
}

func TestFlowsStayInsideTheServersRules(t *testing.T) {
	app, err := NewApp(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	flows := app.Flows(3, 300)
	if len(flows) < 100 {
		t.Fatalf("only %d flows from 40 sites", len(flows))
	}
	ids := make(map[string]bool)
	perUser := make(map[int][]*communix.Signature)
	for _, f := range flows {
		if ids[f.ID] {
			t.Fatalf("flow %v repeats signature %s", f, f.ID)
		}
		ids[f.ID] = true
		s := inversion(app.Sites[f.S1], app.Sites[f.S2])
		if s.ID() != f.ID {
			t.Fatalf("flow %v: ID does not match its inversion", f)
		}
		for _, prev := range perUser[f.User] {
			for top := range s.TopFrames() {
				if _, shared := prev.TopFrames()[top]; shared {
					t.Fatalf("user %d has two flows sharing lock statement %s", f.User, top)
				}
			}
		}
		perUser[f.User] = append(perUser[f.User], s)
	}
	for u, sigs := range perUser {
		if len(sigs) > FlowsPerUser {
			t.Errorf("user %d has %d flows, over the daily budget", u, len(sigs))
		}
	}
}

// TestShuffleKeepsContent: two shuffles of one seed hold the same
// uploads per phase and session, in a different order.
func TestShuffleKeepsContent(t *testing.T) {
	a, err := Ingest(5, 1, 2, 100, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ingest(5, 2, 2, 100, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	key := func(u Upload) string { return u.Kind.String() + string(u.Sig) }
	sorted := func(ups []Upload) []string {
		out := make([]string, len(ups))
		for i, u := range ups {
			out[i] = key(u)
		}
		sort.Strings(out)
		return out
	}
	moved := false
	for s := range a.Saturate {
		x, y := sorted(a.Saturate[s]), sorted(b.Saturate[s])
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("session %d: shuffles hold different uploads", s)
			}
			if key(a.Saturate[s][i]) != key(b.Saturate[s][i]) {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("the shuffle seed did not change the order")
	}
}

func TestIngestMixAndBudgets(t *testing.T) {
	p, err := Ingest(9, 0, 2, 500, 500, 2000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[Kind]int)
	fresh := make(map[int]int)
	total := 0
	for _, scheds := range [][][]Upload{p.Paced, p.Single, p.Saturate} {
		for _, sched := range scheds {
			for _, u := range sched {
				kinds[u.Kind]++
				total++
				if u.Kind == Fresh {
					fresh[u.User]++
				}
				if (u.User < 0) != (u.Kind == BadToken) {
					t.Fatalf("%s upload has user %d", u.Kind, u.User)
				}
			}
		}
	}
	for k, want := range map[Kind]float64{Fresh: 0.85, Duplicate: 0.05, Adjacent: 0.05, OverBudget: 0.025, BadToken: 0.025} {
		if got := float64(kinds[k]) / float64(total); got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share = %.3f, want about %.3f", k, got, want)
		}
	}
	for u, n := range fresh {
		if n > FlowsPerUser {
			t.Errorf("user %d uploads %d fresh signatures, over the daily budget", u, n)
		}
	}
	if p.Users < total/FlowsPerUser*8/10 {
		t.Errorf("only %d users for %d uploads", p.Users, total)
	}
}

func TestCatchupCountsItsVerdicts(t *testing.T) {
	app, err := NewApp(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Catchup(2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sigs) != 400 {
		t.Fatalf("plan holds %d signatures", len(p.Sigs))
	}
	if p.Accepted+p.RejectedHash+p.RejectedDepth != 400 || p.RejectedHash == 0 || p.RejectedDepth == 0 {
		t.Errorf("verdict counts %d/%d/%d do not add up", p.Accepted, p.RejectedHash, p.RejectedDepth)
	}
}
