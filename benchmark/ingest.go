package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"communix"
	"communix/benchmark/gen"
	"communix/benchmark/trace"
	"communix/internal/wire"
)

// ingest measures the write path of one durable server: two raw
// protocol-v2 sessions upload a seeded mix of acceptable and refusable
// signatures — on a fixed schedule (paced), then one at a time (single),
// then as fast as a window of eight in flight allows (saturate).

// ingestSizes fixes the workload's size.
type ingestSizes struct {
	sessions int
	window   int // requests in flight per session while saturating
	// total is the length of the three phases together; the paced phase
	// takes pacedFor of it at rate requests a second over all sessions,
	// the single phase as long as its uploads need, saturate the rest.
	total, pacedFor time.Duration
	rate            float64
	// paced, single and saturate are the uploads generated per session
	// and phase. The first two are what their phases send; saturate ends
	// at its deadline, or early if it exhausts its schedule.
	paced, single, saturate int
}

// pacedRate is the open-loop request rate, frozen at about a third of
// what the saturate phase sustained on the commit that introduced the
// benchmark (2-core sandbox). It is a constant of the benchmark, not a
// tunable: changing it changes the workload.
const pacedRate = 3000

// singleUploads is how many uploads each session sends one at a time: a
// fixed count, not a time, so that the database the saturate phase
// starts on does not grow with the speed of the phase before it.
const singleUploads = 20000

// saturateCap is the requests per second and session the generator
// provides for in the saturate phase: about one and three quarters of
// what the commit that introduced the benchmark sustained. Every upload
// generated is some three kilobytes the process holds to the end, for
// the content check.
const saturateCap = 6000

func (c *config) ingestSizes() ingestSizes {
	d := c.duration
	if c.trace {
		// The traced run repeats the saturate phase with the sessions
		// tapped.
		d /= 2
	}
	sz := ingestSizes{sessions: 2, window: 8, rate: pacedRate, total: d, pacedFor: d / 4}
	if c.tiny {
		sz.rate = 300
		sz.paced, sz.single, sz.saturate = 150, 150, 300
		return sz
	}
	sz.paced = int(sz.rate*sz.pacedFor.Seconds()) / sz.sessions
	sz.single = singleUploads
	sz.saturate = int(saturateCap * (d - sz.pacedFor).Seconds())
	return sz
}

// ingestRig is one durable server with its sessions open and the
// preload committed.
type ingestRig struct {
	srv    *communix.Server
	addr   string
	served chan error
	tokens []communix.Token
	sess   []*rawSession
}

// request builds an upload's ADD under its user's token.
func (r *ingestRig) request(p *gen.IngestPlan, u gen.Upload) wire.Request {
	token := p.BadToken
	if u.User >= 0 {
		token = r.tokens[u.User]
	}
	return wire.Request{Type: wire.MsgAdd, Token: token, Sig: u.Sig}
}

// startSolo starts one production-default durable server on loopback.
func startSolo(dir string) (*communix.Server, string, chan error, error) {
	srv, err := communix.NewServer(communix.ServerConfig{Key: gen.Key, DataDir: dir})
	if err != nil {
		return nil, "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	return srv, l.Addr().String(), served, nil
}

func newIngestRig(dir string, p *gen.IngestPlan, sessions int, taps *trace.FrameLog) (*ingestRig, error) {
	r := &ingestRig{}
	var err error
	if r.srv, r.addr, r.served, err = startSolo(dir); err != nil {
		return nil, err
	}
	fail := func(err error) (*ingestRig, error) { r.close(); return nil, err }
	auth, err := communix.NewAuthority(gen.Key)
	if err != nil {
		return fail(err)
	}
	r.tokens = make([]communix.Token, p.Users)
	for i := range r.tokens {
		_, r.tokens[i] = auth.Issue()
	}
	dial := tcp(r.addr)
	if taps != nil {
		dial = taps.Dial(dial)
	}
	for i := 0; i < sessions; i++ {
		s, err := openSession(dial)
		if err != nil {
			return fail(err)
		}
		// Request ids are unique across the sessions, so that a reply on
		// a shared tap is matched to its own request.
		s.nextID += uint64(i) << 32
		r.sess = append(r.sess, s)
	}
	for i, u := range p.Preload {
		resp, err := r.sess[0].roundTrip(r.request(p, u))
		if err != nil {
			return fail(fmt.Errorf("preload %d: %w", i, err))
		}
		if resp.Status != wire.StatusOK || resp.Detail != "" {
			return fail(fmt.Errorf("preload %d: %s: %s", i, resp.Status, resp.Detail))
		}
	}
	return r, nil
}

func (r *ingestRig) close() {
	for _, s := range r.sess {
		s.close()
	}
	if r.srv != nil {
		r.srv.Close()
		<-r.served
	}
}

// ingestTally is what one session observed in one phase.
type ingestTally struct {
	samples []sample
	late    []float64 // how far behind schedule each request was sent, ms (paced, merged tally only)
	sent    int       // uploads of the schedule that were sent
	// lost counts the requests still unanswered when a session waited
	// replyTimeout in vain, and lostFresh those of them the server would
	// have accepted: their fate is unknown.
	lost, lostFresh int
	busy            int
	bad             int // replies that differed from the prediction
	firstBad        string
	err             error
}

// check compares one reply with the generator's prediction.
func (t *ingestTally) check(u gen.Upload, resp wire.Response) {
	status, dup := u.Kind.Expect()
	if resp.Status == wire.StatusBusy {
		t.busy++
	}
	if resp.Status == status && (resp.Detail == "duplicate") == dup {
		return
	}
	t.bad++
	if t.firstBad == "" {
		t.firstBad = fmt.Sprintf("%s upload answered %s %q", u.Kind, resp.Status, resp.Detail)
	}
}

// lose records the uploads of sent that were never answered.
func (t *ingestTally) lose(sent []gen.Upload, answered []bool) {
	for i, u := range sent {
		if !answered[i] {
			t.lost++
			if u.Kind == gen.Fresh {
				t.lostFresh++
			}
		}
	}
}

// saturate drives one session in a closed loop with window requests in
// flight until the deadline or the end of the schedule. Latency is
// send → reply.
func saturate(s *rawSession, r *ingestRig, p *gen.IngestPlan, sched []gen.Upload, window int, begin time.Time, d time.Duration) ingestTally {
	var t ingestTally
	sentAt := make([]time.Time, len(sched))
	answered := make([]bool, len(sched))
	base := s.nextID
	send := func() bool {
		if t.sent == len(sched) || time.Since(begin) >= d {
			return false
		}
		sentAt[t.sent] = time.Now()
		if _, err := s.send(r.request(p, sched[t.sent])); err != nil {
			t.err = err
			return false
		}
		t.sent++
		return true
	}
	inflight := 0
	for inflight < window && send() {
		inflight++
	}
	for inflight > 0 && t.err == nil {
		resp, timedOut, err := s.recv()
		if timedOut {
			t.lose(sched[:t.sent], answered)
			break
		}
		if err != nil {
			t.err = err
			break
		}
		now := time.Now()
		i := int(resp.ID - base)
		if i < 0 || i >= t.sent || answered[i] {
			t.err = fmt.Errorf("reply for unknown request id %d", resp.ID)
			break
		}
		answered[i] = true
		t.check(sched[i], resp)
		t.samples = append(t.samples, sample{at: now.Sub(begin), lat: now.Sub(sentAt[i])})
		inflight--
		if send() {
			inflight++
		}
	}
	return t
}

// paceTick is the open loop's clock. The sandbox kernel's timer tick is
// about a millisecond, so a sleeping generator cannot hold a finer
// schedule, and a spinning one would take a core from the server it is
// measuring. Requests are therefore due in bursts: every paceTick, as
// many as the rate asks for.
const paceTick = 2 * time.Millisecond

// pace drives every session in an open loop from one pacing goroutine:
// every paceTick a burst of rate·paceTick requests falls due, dealt
// round-robin to the sessions and sent then, however many replies are
// outstanding. Latency is due time → reply. A burst the pacer slept for
// is due when its timer fired: the overshoot of that sleep (up to a
// kernel tick) is the sandbox's, not the server's. A burst the pacer was
// already behind for — a send blocked on a full socket — is due at its
// scheduled time, so the stall is charged to every request it delays.
// How far behind schedule requests were sent is reported beside it.
func (r *ingestRig) pace(p *gen.IngestPlan, rate float64, d time.Duration) ingestPhase {
	k := len(r.sess)
	per := int(d/paceTick) * int(rate*paceTick.Seconds()+0.5) / k
	for _, sched := range p.Paced {
		if per > len(sched) {
			per = len(sched)
		}
	}
	burst := int(rate*paceTick.Seconds() + 0.5)
	if burst < 1 {
		burst = 1
	}
	begin := time.Now()
	due := make([]time.Time, per*k/burst+1) // per burst; written before the burst's first send
	tallies := make([]ingestTally, k)
	base := make([]uint64, k)
	var wg sync.WaitGroup
	for i, s := range r.sess {
		base[i] = s.nextID
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, sched := &tallies[i], p.Paced[i]
			answered := make([]bool, per)
			for got := 0; got < per; got++ {
				resp, timedOut, err := s.recv()
				if timedOut {
					// The pacer has long finished: whatever is unanswered now
					// was sent at least replyTimeout ago.
					t.lose(sched[:per], answered)
					return
				}
				if err != nil {
					t.err = err
					return
				}
				now := time.Now()
				j := int(resp.ID - base[i])
				if j < 0 || j >= per || answered[j] {
					t.err = fmt.Errorf("reply for unknown request id %d", resp.ID)
					return
				}
				answered[j] = true
				t.check(sched[j], resp)
				t.samples = append(t.samples, sample{at: now.Sub(begin), lat: now.Sub(due[(j*k+i)/burst])})
			}
		}()
	}
	var late []float64
	sent := make([]int, k)
	var sendErr error
	for n := 0; n < per*k && sendErr == nil; n++ {
		at := begin.Add(time.Duration(n/burst) * paceTick)
		if n%burst == 0 {
			due[n/burst] = at
			if wait := time.Until(at); wait > 0 {
				time.Sleep(wait)
				due[n/burst] = time.Now()
			}
		}
		late = append(late, float64(time.Since(at))/float64(time.Millisecond))
		i := n % k
		if _, err := r.sess[i].send(r.request(p, p.Paced[i][n/k])); err != nil {
			sendErr = err
			for _, s := range r.sess {
				s.close() // unblocks the receivers
			}
			break
		}
		sent[i]++
	}
	wg.Wait()
	all := mergeTallies(tallies)
	all.late = late
	all.sent = 0
	for _, n := range sent {
		all.sent += n
	}
	if sendErr != nil {
		all.err = sendErr
	}
	return ingestPhase{scheds: p.Paced, sent: sent, tally: all}
}

// closedLoop drives every session through its schedule at once, window
// requests in flight on each, for d.
func (r *ingestRig) closedLoop(p *gen.IngestPlan, scheds [][]gen.Upload, window int, d time.Duration) ingestPhase {
	begin := time.Now()
	tallies := make([]ingestTally, len(r.sess))
	var wg sync.WaitGroup
	for i, s := range r.sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[i] = saturate(s, r, p, scheds[i], window, begin, d)
		}()
	}
	wg.Wait()
	sent := make([]int, len(tallies))
	for i, t := range tallies {
		sent[i] = t.sent
	}
	return ingestPhase{scheds: scheds, sent: sent, tally: mergeTallies(tallies)}
}

// mergeTallies sums the sessions' observations, samples in completion
// order.
func mergeTallies(tallies []ingestTally) ingestTally {
	var all ingestTally
	for _, t := range tallies {
		all.samples = append(all.samples, t.samples...)
		all.sent += t.sent
		all.lost += t.lost
		all.lostFresh += t.lostFresh
		all.busy += t.busy
		all.bad += t.bad
		if all.firstBad == "" {
			all.firstBad = t.firstBad
		}
		if all.err == nil {
			all.err = t.err
		}
	}
	sort.Slice(all.samples, func(a, b int) bool { return all.samples[a].at < all.samples[b].at })
	return all
}

// setDigest condenses a set of encoded signatures into one value that
// does not depend on their order.
func setDigest(acc *[sha256.Size]byte, raw []byte) {
	sum := sha256.Sum256(raw)
	for i := range acc {
		acc[i] ^= sum[i]
	}
}

// storedDigest digests everything the server holds.
func storedDigest(srv *communix.Server) (digest [sha256.Size]byte, n int, err error) {
	err = eachStored(srv, func(raw json.RawMessage) error {
		setDigest(&digest, raw)
		n++
		return nil
	})
	return digest, n, err
}

// ingestPhase is one phase as it ran: its schedules, how far each
// session got through its own, and what the sessions observed.
type ingestPhase struct {
	scheds [][]gen.Upload
	sent   []int
	tally  ingestTally
}

// verify is the ingest correctness gate: every reply matched its
// prediction (checked as replies arrived), and the database holds
// exactly the uploads predicted to be accepted. Uploads whose reply was
// lost may or may not have been stored; with any of those the content
// can only be bounded.
func (r *ingestRig) verify(p *gen.IngestPlan, phases ...ingestPhase) (contentKey string, err error) {
	lostFresh := 0
	for _, ph := range phases {
		t := ph.tally
		if t.err != nil {
			return "", t.err
		}
		if t.bad > 0 {
			return "", fmt.Errorf("%d replies differed from the generator's prediction; first: %s", t.bad, t.firstBad)
		}
		if t.lost > tolerated(t.sent) {
			return "", fmt.Errorf("%d of %d uploads went unanswered for %s", t.lost, t.sent, replyTimeout)
		}
		lostFresh += t.lostFresh
	}
	var want [sha256.Size]byte
	accepted := 0
	expect := func(ups []gen.Upload) {
		for _, u := range ups {
			if u.Kind != gen.Fresh {
				continue
			}
			// The generator emits the canonical encoding, which is what
			// the server stores and serves.
			setDigest(&want, u.Sig)
			accepted++
		}
	}
	expect(p.Preload)
	for _, ph := range phases {
		for i, sched := range ph.scheds {
			expect(sched[:ph.sent[i]])
		}
	}
	got, n, err := storedDigest(r.srv)
	if err != nil {
		return "", err
	}
	if n != r.srv.Store().Len() || n > accepted || n < accepted-lostFresh {
		return "", fmt.Errorf("database holds %d signatures, generator predicted %d (%d of them unanswered)", n, accepted, lostFresh)
	}
	if lostFresh == 0 && got != want {
		return "", errors.New("database content differs from the predicted accepted set")
	}
	return hex.EncodeToString(got[:]), nil
}

func runIngest(c *config) (*outcome, error) {
	sz := c.ingestSizes()
	genStart := time.Now()
	plan, err := gen.Ingest(c.seed, c.shuffle, sz.sessions, sz.paced, sz.single, sz.saturate)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.genSeconds = time.Since(genStart).Seconds()

	var rig *ingestRig
	for rep, spent := 0, time.Duration(0); c.setUpAgain(rep, spent); rep++ {
		if rig != nil {
			rig.close()
		}
		dir, err := c.scratch(fmt.Sprintf("solo%d", rep))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if rig, err = newIngestRig(dir, plan, sz.sessions, nil); err != nil {
			return nil, fmt.Errorf("ingest set-up: %w", err)
		}
		spent += time.Since(t)
		out.setup = append(out.setup, time.Since(t).Seconds())
	}
	defer func() { rig.close() }()

	runtime.GC()
	// Paced first, on the small database; saturate last, because it is
	// the phase that grows it.
	begin := time.Now()
	pac := rig.pace(plan, sz.rate, sz.pacedFor)
	one := rig.closedLoop(plan, plan.Single, 1, sz.total)
	// Saturate gets what is left of the run, and a quarter of it at least:
	// a slow single phase lengthens the run, it does not fail it.
	satFor := max(sz.total-time.Since(begin), sz.total/4)
	sat := rig.closedLoop(plan, plan.Saturate, sz.window, satFor)
	if c.contentKey, err = rig.verify(plan, pac, one, sat); err != nil {
		return nil, fmt.Errorf("ingest: correctness: %w", err)
	}
	for _, ph := range []ingestPhase{pac, one, sat} {
		out.attempted += ph.tally.sent
		out.failed += ph.tally.lost // a busy reply fails the gate
	}

	pacSpan := spanOf(pac.tally.samples, sz.pacedFor)
	oneSpan := spanOf(one.tally.samples, 0)
	satSpan := spanOf(sat.tally.samples, satFor)
	ms := func(samples []sample, span time.Duration, p float64) namedMetric {
		return named(latency(samples, span, p, time.Millisecond), "ms")
	}
	// The saturated throughput is taken over the whole phase, not as the
	// median slice: the database grows through the phase and every
	// compaction rewrites all of it, so the slices differ by design and
	// the median lands wherever the compactions do.
	out.named["add_ops_s"] = named(wholeRate(sat.tally.samples, satSpan), "1/s")
	out.named["add_saturated_p50_ms"] = ms(sat.tally.samples, satSpan, 0.5)
	out.named["add_saturated_p95_ms"] = ms(sat.tally.samples, satSpan, 0.95)
	out.named["add_single_p50_ms"] = ms(one.tally.samples, oneSpan, 0.5)
	out.named["add_single_p95_ms"] = ms(one.tally.samples, oneSpan, 0.95)
	// The paced latencies are what an operator provisions by, and are
	// printed, but they cannot be bounded here: every two-millisecond
	// burst wakes an idle process, and which of two wake-up paths the
	// scheduler settles into differs from one process to the next (the
	// median is 0.46 ms or 0.67 ms for the same seed). With one request
	// in flight per session nothing sleeps on a timer, and the same round
	// trip repeats within a few percent: that is the bounded latency.
	out.named["add_p50_ms"] = ms(pac.tally.samples, pacSpan, 0.5)
	out.named["add_p95_ms"] = ms(pac.tally.samples, pacSpan, 0.95)
	late := pac.tally.late
	sort.Float64s(late)
	out.named["gen_late_p95_ms"] = once(quantile(late, 0.95), "ms", len(late))
	out.bounded(out.named["add_single_p50_ms"], out.named["add_ops_s"], out.named["add_saturated_p50_ms"])
	if !c.trace {
		return out, nil
	}
	return ingestLayers(c, plan, sz, out, satFor, late)
}
