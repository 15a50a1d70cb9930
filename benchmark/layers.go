package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"communix"
	"communix/benchmark/gen"
	"communix/benchmark/trace"
	"communix/internal/agent"
	"communix/internal/client"
	"communix/internal/dimmunix"
	"communix/internal/ids"
	"communix/internal/plugin"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/stacktrace"
	"communix/internal/store"
	"communix/internal/wire"
)

// This file is the traced run: everything here executes only under
// -trace 1, and it is the only code of the benchmark that calls the
// program's internal packages beyond wire and the input builders. Each
// probe wraps calls into one layer's public functions in spans, on the
// inputs the workload itself uses; README.md lists every function
// called.

// layerMetric defines one per-layer metric. A metric with a span is the
// mean self time of the spans of that name (per processed item when
// perUnit), converted to its unit; the others are set by the code that
// measures them. A workload that never enters a layer reports 0 for it.
type layerMetric struct {
	name, unit string
	span       string
	perUnit    bool
}

var layerMetrics = []layerMetric{
	// Stages of protect: consecutive edges of one round.
	{name: "stage.detect_us", unit: "us", span: "stage.detect"},
	{name: "stage.plugin_us", unit: "us", span: "stage.plugin"},
	{name: "stage.commit_us", unit: "us", span: "stage.commit"},
	{name: "stage.fanout_us", unit: "us", span: "stage.fanout"},
	{name: "stage.land_us", unit: "us", span: "stage.land"},
	{name: "stage.validate_us", unit: "us", span: "stage.validate"},
	{name: "stage.arm_us", unit: "us", span: "stage.arm"},
	{name: "stage.coverage", unit: "ratio"},

	{name: "sig.encode_ns", unit: "ns", span: "sig.encode"},
	{name: "sig.decode_ns", unit: "ns", span: "sig.decode"},
	{name: "sig.id_ns", unit: "ns", span: "sig.id"},
	{name: "sig.adjacent_ns", unit: "ns", span: "sig.adjacent"},
	{name: "sig.merge_ns", unit: "ns", span: "sig.merge"},
	{name: "sig.bytes", unit: "B"},

	{name: "ids.verify_ns", unit: "ns", span: "ids.verify"},

	{name: "wire.encode_add_ns", unit: "ns", span: "wire.encode_add"},
	{name: "wire.decode_push_ns_per_sig", unit: "ns", span: "wire.decode_push", perUnit: true},
	{name: "wire.bytes_per_add", unit: "B"},
	{name: "wire.bytes_per_push_sig", unit: "B"},
	{name: "wire.ping_rtt_us", unit: "us", span: "wire.ping_rtt"},

	{name: "store.add_us", unit: "us", span: "store.add"},
	{name: "store.addbatch_us_per_sig", unit: "us", span: "store.addbatch", perUnit: true},
	{name: "store.getpage_us_per_sig", unit: "us", span: "store.getpage", perUnit: true},
	{name: "store.wal.bytes_per_add", unit: "B"},
	{name: "store.reject_frac", unit: "ratio"},
	{name: "store.open_recover_s", unit: "s", span: "store.open_recover"},

	{name: "server.process_add_us", unit: "us", span: "server.process_add"},
	{name: "server.process_get_us_per_sig", unit: "us", span: "server.process_get", perUnit: true},
	{name: "server.busy_frac", unit: "ratio"},
	{name: "server.quorum_extra_us", unit: "us"},
	{name: "server.follower_lag_max", unit: "count"},

	{name: "client.upload_us", unit: "us", span: "client.upload"},
	{name: "client.synconce_us_per_sig", unit: "us", span: "client.synconce", perUnit: true},

	{name: "plugin.handle_us", unit: "us", span: "plugin.handle"},

	{name: "repo.append_us_per_sig", unit: "us", span: "repo.append", perUnit: true},
	{name: "repo.newsince_us_per_sig", unit: "us", span: "repo.newsince", perUnit: true},

	{name: "agent.validate_us_per_sig", unit: "us", span: "agent.run_startup", perUnit: true},
	{name: "agent.accept_frac", unit: "ratio"},
	{name: "agent.merge_frac", unit: "ratio"},

	{name: "stacktrace.capture_cached_ns", unit: "ns", span: "stacktrace.capture_cached", perUnit: true},
	{name: "stacktrace.capture_adaptive_ns", unit: "ns", span: "stacktrace.capture_adaptive", perUnit: true},
	{name: "stacktrace.capture_uncached_ns", unit: "ns", span: "stacktrace.capture_uncached", perUnit: true},

	{name: "dimmunix.acquire_unmatched_ns", unit: "ns", span: "dimmunix.acquire_unmatched", perUnit: true},
	{name: "dimmunix.acquire_matched_ns", unit: "ns", span: "dimmunix.acquire_matched", perUnit: true},
	{name: "dimmunix.history_add_us", unit: "us", span: "dimmunix.history_add"},
	{name: "dimmunix.refresh_delta_ns", unit: "ns"},
	{name: "dimmunix.refresh_full_count", unit: "count"},
	{name: "dimmunix.yield_frac", unit: "ratio"},
	{name: "dimmunix.contended_frac", unit: "ratio"},
	{name: "dimmunix.detect_us", unit: "us"},

	{name: "commdlk.send_recv_ns", unit: "ns", span: "commdlk.send_recv_probe", perUnit: true},
	{name: "commdlk.select_ns", unit: "ns", span: "commdlk.select", perUnit: true},
	{name: "commdlk.raw_ratio", unit: "ratio"},
	{name: "commdlk.detect_us", unit: "us"},

	// Harness: how far the other numbers can be trusted.
	{name: "gen.late_p95_ms", unit: "ms"},
	{name: "trace.overhead_frac", unit: "ratio"},
}

func unitNanos(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	return 1
}

// fillLayers derives every span-backed per-layer metric from the
// recorder and returns the summary it read them from.
func (o *outcome) fillLayers(rec *trace.Recorder) map[string]trace.Agg {
	sum := rec.Summary()
	for _, m := range layerMetrics {
		a, ok := sum[m.span]
		if m.span == "" || !ok {
			continue
		}
		v := a.MeanSelf()
		if m.perUnit {
			v = a.PerUnit()
		}
		o.layers[m.name] = v / unitNanos(m.unit)
	}
	return sum
}

// timed runs fn inside a span.
func timed(rec *trace.Recorder, layer, name string, units int, fn func()) {
	id := rec.Begin(layer, name, 0, 0)
	fn()
	rec.EndUnits(id, units)
}

// probeBatch is how many calls of a sub-microsecond function one span
// covers, so that the span's own cost (two clock reads and a mutex) does
// not dominate what it measures.
const probeBatch = 16

// decodeAll decodes raw signatures, failing on any that does not parse.
func decodeAll(raws []json.RawMessage) ([]*sig.Signature, error) {
	out := make([]*sig.Signature, len(raws))
	for i, raw := range raws {
		s, err := sig.Decode(raw)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// probeSig times the signature codec and relations on the workload's own
// signatures.
func probeSig(o *outcome, rec *trace.Recorder, raws []json.RawMessage) error {
	total := 0
	var prev *sig.Signature
	for _, raw := range raws {
		total += len(raw)
		var s *sig.Signature
		var err error
		timed(rec, "sig", "decode", 1, func() { s, err = sig.Decode(raw) })
		if err != nil {
			return err
		}
		timed(rec, "sig", "encode", 1, func() { _, err = sig.Encode(s) })
		if err != nil {
			return err
		}
		timed(rec, "sig", "id", 1, func() { _ = s.ID() })
		if prev != nil {
			timed(rec, "sig", "adjacent", 1, func() { _ = sig.Adjacent(s, prev) })
		}
		prev = s
	}
	if len(raws) > 0 {
		o.layers["sig.bytes"] = float64(total) / float64(len(raws))
	}
	return nil
}

// probeMerge times generalization over pairs of same-bug signatures.
func probeMerge(rec *trace.Recorder, sigs []*sig.Signature) {
	byBug := make(map[string]*sig.Signature)
	var policy sig.MergePolicy
	for _, s := range sigs {
		k := s.BugKey()
		if first, ok := byBug[k]; ok {
			timed(rec, "sig", "merge", 1, func() { _, _ = policy.Merge(first, s) })
		} else {
			byBug[k] = s
		}
	}
}

func probeIDs(rec *trace.Recorder, tokens []communix.Token) error {
	codec, err := ids.NewCodec(gen.Key)
	if err != nil {
		return err
	}
	for _, tok := range tokens {
		timed(rec, "ids", "verify", 1, func() { _, err = codec.Verify(tok) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeEncodeAdd times building and framing ADD requests.
func probeEncodeAdd(rec *trace.Recorder, token communix.Token, sigs []*sig.Signature) error {
	for _, s := range sigs {
		var err error
		timed(rec, "wire", "encode_add", 1, func() {
			var req wire.Request
			if req, err = wire.NewAdd(token, s); err == nil {
				_, err = wire.EncodeFrame(req)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeDecodePush times decoding PUSH pages of the default size.
func probeDecodePush(rec *trace.Recorder, raws []json.RawMessage) error {
	for from := 0; from < len(raws); from += wire.MaxGetBatch {
		page := raws[from:min(from+wire.MaxGetBatch, len(raws))]
		frame, err := wire.EncodeFrame(wire.Response{Status: wire.StatusOK, Type: wire.MsgPush, Sigs: page, Next: from + len(page) + 1})
		if err != nil {
			return err
		}
		timed(rec, "wire", "decode_push", len(page), func() {
			var resp wire.Response
			err = wire.ReadMessage(bytes.NewReader(frame), &resp)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probePing times keepalive round trips on a fresh session: the
// transport floor under every networked stage.
func probePing(rec *trace.Recorder, addr string) error {
	s, err := openSession(tcp(addr))
	if err != nil {
		return err
	}
	defer s.close()
	for i := 0; i < 200; i++ {
		timed(rec, "wire", "ping_rtt", 1, func() { _, err = s.roundTrip(wire.NewPing(0)) })
		if err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// probeStore drives a durable store directly — no server, no transport:
// single adds, batched adds, paged reads, and recovery of what it wrote.
func probeStore(o *outcome, rec *trace.Recorder, dir string, ups []store.Upload) error {
	cfg := store.Config{DataDir: dir}
	st, err := store.Open(cfg)
	if err != nil {
		return err
	}
	half := len(ups) / 2
	accepted, rejected := 0, 0
	count := func(added bool, err error) {
		switch {
		case added:
			accepted++
		case err != nil:
			rejected++
		}
	}
	for _, u := range ups[:half] {
		timed(rec, "store", "add", 1, func() { count(st.Add(u.User, u.Sig)) })
	}
	for from := half; from < len(ups); from += server.DefaultIngestBatch {
		batch := ups[from:min(from+server.DefaultIngestBatch, len(ups))]
		timed(rec, "store", "addbatch", len(batch), func() {
			for _, r := range st.AddBatch(batch) {
				count(r.Added, r.Err)
			}
		})
	}
	for from := 1; from <= st.Len(); {
		id := rec.Begin("store", "getpage", 0, 0)
		page, next, _ := st.GetPage(from, wire.MaxGetBatch, wire.MaxGetBytes)
		rec.EndUnits(id, len(page))
		if len(page) == 0 {
			break
		}
		from = next
	}
	if err := st.Close(); err != nil {
		return err
	}
	if n := accepted + rejected; n > 0 {
		o.layers["store.reject_frac"] = float64(rejected) / float64(n)
	}
	if size, err := dirBytes(dir); err == nil && accepted > 0 {
		o.layers["store.wal.bytes_per_add"] = float64(size) / float64(accepted)
	}
	timed(rec, "store", "open_recover", 1, func() { st, err = store.Open(cfg) })
	if err != nil {
		return err
	}
	return st.Close()
}

// probeServer calls a durable server's Process directly — the ADD and
// GET paths without sessions or sockets.
func probeServer(rec *trace.Recorder, dir string, reqs []wire.Request) error {
	srv, err := server.New(server.Config{Key: gen.Key, DataDir: dir})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, req := range reqs {
		timed(rec, "server", "process_add", 1, func() { _ = srv.Process(req) })
	}
	for from := 1; ; {
		var resp wire.Response
		id := rec.Begin("server", "process_get", 0, 0)
		resp = srv.Process(wire.NewGet(from))
		rec.EndUnits(id, len(resp.Sigs))
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("probe GET(%d): %s", from, resp.Status)
		}
		if !resp.More {
			return nil
		}
		from = resp.Next
	}
}

// probeRepo appends pages to an empty repository and lists them back.
func probeRepo(rec *trace.Recorder, raws []json.RawMessage) error {
	rp, err := repo.Open("")
	if err != nil {
		return err
	}
	for from := 0; from < len(raws); from += wire.MaxGetBatch {
		page := raws[from:min(from+wire.MaxGetBatch, len(raws))]
		timed(rec, "repo", "append", len(page), func() { err = rp.Append(page, from+len(page)+1) })
		if err != nil {
			return err
		}
	}
	timed(rec, "repo", "newsince", len(raws), func() { _ = rp.NewSince("probe") })
	return nil
}

// discard is an Uploader that publishes nowhere.
type discard struct{}

func (discard) Upload(*sig.Signature) error { return nil }

// probePlugin times the plugin's share of a deadlock report: stamping
// hashes and queueing the upload.
func probePlugin(rec *trace.Recorder, app *gen.App, sigs []*sig.Signature) error {
	p, err := plugin.New(plugin.Config{Uploader: discard{}, Hasher: app.View, QueueSize: len(sigs) + 1})
	if err != nil {
		return err
	}
	defer p.Close()
	for _, s := range sigs {
		timed(rec, "plugin", "handle", 1, func() { p.HandleDeadlock(dimmunix.Deadlock{Signature: s}) })
	}
	return nil
}

// ---- protect ----

// tracedSubscriber is machine B assembled by hand from the same parts
// communix.NewNode wires together — client, repository, agent, history,
// runtime — so that the agent's pass is a call the benchmark times.
type tracedSubscriber struct {
	*dimmunix.Runtime
	cl *client.Client
}

func (t *tracedSubscriber) yields() uint64    { return t.Stats().Yields }
func (t *tracedSubscriber) deadlocks() uint64 { return t.Stats().Deadlocks }
func (t *tracedSubscriber) Close()            { t.cl.Close(); t.Runtime.Close() }

func newTracedSubscriber(rig *protectRig, app *gen.App, token communix.Token, dial dialer) (subscriber, error) {
	hist := dimmunix.NewHistory()
	rp, err := repo.Open("")
	if err != nil {
		return nil, err
	}
	ag, err := agent.New(agent.Config{App: app.View, AppKey: "bench@B", Repo: rp, History: hist})
	if err != nil {
		return nil, err
	}
	cl, err := client.New(client.Config{
		Dial: dial, Repo: rp, Token: token, Subscribe: true,
		OnSignatures: func(int) {
			landed := time.Now()
			id := rig.rec.Begin("agent", "run_startup", 0, 0)
			rep, _ := ag.RunStartup()
			rig.rec.EndUnits(id, rep.Inspected)
			done := time.Now()
			rig.landed <- done
			rig.validated <- [2]time.Time{landed, done}
		},
	})
	if err != nil {
		return nil, err
	}
	t := &tracedSubscriber{
		Runtime: dimmunix.NewRuntime(dimmunix.Config{History: hist, Policy: dimmunix.RecoverBreak}),
		cl:      cl,
	}
	cl.Start()
	return t, nil
}

// pick returns the indices of the frames keep accepts, in log order.
func pick(frames []trace.Frame, keep func(*trace.Frame) bool) []int {
	var out []int
	for i := range frames {
		if keep(&frames[i]) {
			out = append(out, i)
		}
	}
	return out
}

// protectLayers runs the traced half of the protect workload on a rig
// whose sockets are tapped and whose subscriber is hand-assembled, and
// cuts every round into its stages.
func protectLayers(c *config, rig *protectRig, app *gen.App, flows []gen.Flow, sz protectSizes, out *outcome) (*outcome, error) {
	rec := c.rec
	d := c.duration / 2
	untraced := out.named["ttp_p50_ms"].Value

	rounds, err := rig.runRounds(app, flows, d, true)
	if err != nil {
		return nil, fmt.Errorf("protect traced: %w", err)
	}
	if _, _, err := rig.verify(app, rounds, sz.forced); err != nil {
		return nil, fmt.Errorf("protect traced: correctness: %w", err)
	}
	// Follower lag, sampled at the end of every round.
	lagMax := 0
	for _, rd := range rounds {
		if rd.lag > lagMax {
			lagMax = rd.lag
		}
	}

	// Cut each round at the frame boundaries the taps saw. One round is
	// in flight at a time, so the k-th ADD on A's sockets and the k-th
	// PUSH on B's (after the warm-up backlog) belong to round k. Every
	// stage is the interval between two edges observed on their own — a
	// callback's clock reading, a frame crossing a tap — and none is
	// adjusted to fit its neighbours: the plugin may have the ADD on the
	// wire before the application's OnDeadlock has run, and that round's
	// plugin stage is then negative, as measured.
	aFrames, bFrames := rig.tapA.Frames(), rig.tapB.Frames()
	isAdd := func(f *trace.Frame) bool { return f.Out && f.Type() == trace.TypeAdd }
	isPush := func(f *trace.Frame) bool { return !f.Out && f.Type() == trace.TypePush }
	adds, pushes := pick(aFrames, isAdd), pick(bFrames, isPush)
	if len(adds) != len(rounds) || len(pushes) != len(rounds)+1 {
		return nil, fmt.Errorf("protect traced: %d rounds left %d ADD and %d PUSH frames on the taps", len(rounds), len(adds), len(pushes))
	}
	var commit []float64
	blocking := map[string][]float64{}
	for i, rd := range rounds {
		add, push := adds[i], pushes[i+1]
		reply := -1
		for j := add + 1; j < len(aFrames) && reply < 0; j++ {
			if f := &aFrames[j]; !f.Out && f.ID() == aFrames[add].ID() {
				reply = j
			}
		}
		if reply < 0 {
			return nil, fmt.Errorf("protect traced: round %d: ADD was never answered", i)
		}
		addAt, replyAt, pushAt := aFrames[add].At, aFrames[reply].At, bFrames[push].At
		r := int64(i)
		root := rec.Add("stage", "round", 0, r, rd.start, rd.landed.Add(rd.armed))
		rec.Add("stage", "detect", root, r, rd.start, rd.deadlock)
		rec.Add("stage", "commit", 0, r, addAt, replyAt)
		if rd.armed > 0 {
			rec.Add("stage", "arm", root, r, rd.landed, rd.landed.Add(rd.armed))
		}
		for _, st := range []struct {
			name     string
			from, to time.Time
		}{
			{"stage.plugin", rd.deadlock, addAt},
			{"stage.fanout", addAt, pushAt},
			{"stage.land", pushAt, rd.valBegin},
			{"stage.validate", rd.valBegin, rd.landed},
		} {
			rec.Add("stage", st.name[len("stage."):], root, r, st.from, st.to)
			blocking[st.name] = append(blocking[st.name], float64(st.to.Sub(st.from)))
		}
		commit = append(commit, float64(replyAt.Sub(addAt))/1e3)
	}
	nAdd, addBytes := rig.tapA.Bytes(isAdd)
	nPush, pushBytes := rig.tapB.Bytes(isPush)
	if nAdd > 0 {
		out.layers["wire.bytes_per_add"] = float64(addBytes) / float64(nAdd)
	}
	if nPush > 0 {
		out.layers["wire.bytes_per_push_sig"] = float64(pushBytes) / float64(nPush)
	}

	// The same signatures through the layers the round crossed blind.
	var raws []json.RawMessage
	var sigs []*sig.Signature
	for _, rd := range rounds[:min(len(rounds), 256)] {
		s := rig.sub.History().Get(rd.flow.ID)
		raw, err := sig.Encode(s)
		if err != nil {
			return nil, err
		}
		raws, sigs = append(raws, raw), append(sigs, s)
	}
	if err := probeSig(out, rec, raws); err != nil {
		return nil, err
	}
	if err := probePlugin(rec, app, sigs); err != nil {
		return nil, err
	}
	if err := probePing(rec, rig.cell.addrs[0]); err != nil {
		return nil, err
	}
	// What quorum adds: the same uploads against one durable server.
	solo, err := protectSoloAdds(c, rec)
	if err != nil {
		return nil, err
	}
	out.layers["server.quorum_extra_us"] = median(commit) - solo
	out.layers["server.follower_lag_max"] = float64(lagMax)

	sum := out.fillLayers(rec)
	ttp, _ := protectSamples(rounds)
	traced := latency(ttp, spanOf(ttp, d), 0.5, time.Millisecond).val
	if untraced > 0 {
		// The typical length of each blocking stage, each measured on its
		// own in the traced run, against the typical time-to-protection
		// of the untraced one: the stages account for it when this is
		// near one.
		var stages float64
		for _, lens := range blocking {
			stages += median(lens)
		}
		out.layers["stage.coverage"] = stages / 1e6 / untraced
		out.layers["trace.overhead_frac"] = traced/untraced - 1
	}
	if a := sum["agent.run_startup"]; a.Units > 0 {
		out.layers["agent.accept_frac"] = float64(len(rounds)) / float64(a.Units)
	}
	out.layers["dimmunix.detect_us"] = out.layers["stage.detect_us"]
	return out, nil
}

// protectSoloAdds uploads through the product client to one durable,
// unreplicated server and returns the median upload time in
// microseconds: the baseline the cell's commit stage is compared with.
func protectSoloAdds(c *config, rec *trace.Recorder) (float64, error) {
	dir, err := c.scratch("solo-probe")
	if err != nil {
		return 0, err
	}
	srv, addr, served, err := startSolo(dir)
	if err != nil {
		return 0, err
	}
	defer func() { srv.Close(); <-served }()
	auth, err := communix.NewAuthority(gen.Key)
	if err != nil {
		return 0, err
	}
	r := newRand(c.seed)
	var us []float64
	for u := 0; u < 8; u++ {
		_, token := auth.Issue()
		rp, err := repo.Open("")
		if err != nil {
			return 0, err
		}
		cl, err := client.New(client.Config{Addr: addr, Repo: rp, Token: token})
		if err != nil {
			return 0, err
		}
		for k := 0; k < gen.FlowsPerUser; k++ {
			s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, u*gen.FlowsPerUser+k+1, 10, 10)
			t := time.Now()
			id := rec.Begin("client", "upload", 0, 0)
			err := cl.Upload(s)
			rec.End(id)
			if err != nil {
				cl.Close()
				return 0, err
			}
			us = append(us, float64(time.Since(t))/1e3)
		}
		cl.Close()
	}
	return median(us), nil
}

// ---- ingest ----

// ingestLayers runs the traced part of ingest: the single and saturate
// phases again on a fresh server with tapped sessions (the paced uploads
// go first, as fast as they will, so that the database is the same
// size); then every layer of the write path on its own over the same
// uploads.
func ingestLayers(c *config, plan *gen.IngestPlan, sz ingestSizes, out *outcome, satFor time.Duration, late []float64) (*outcome, error) {
	rec := c.rec
	dir, err := c.scratch("solo-traced")
	if err != nil {
		return nil, err
	}
	taps := &trace.FrameLog{}
	rig, err := newIngestRig(dir, plan, sz.sessions, taps)
	if err != nil {
		return nil, fmt.Errorf("ingest traced set-up: %w", err)
	}
	defer rig.close()
	d := satFor
	paced := rig.closedLoop(plan, plan.Paced, sz.window, time.Minute)
	single := rig.closedLoop(plan, plan.Single, 1, time.Minute)
	ph := rig.closedLoop(plan, plan.Saturate, sz.window, d)
	if _, err := rig.verify(plan, paced, single, ph); err != nil {
		return nil, fmt.Errorf("ingest traced: correctness: %w", err)
	}
	sat := ph.tally
	// A span per request, cut from the taps after the run: sent → reply.
	frames := taps.Frames()
	open := make(map[int]time.Time)
	for i := range frames {
		f := &frames[i]
		switch {
		case f.Out && f.Type() == trace.TypeAdd:
			open[f.ID()] = f.At
		case !f.Out && f.Type() == 0:
			if at, ok := open[f.ID()]; ok {
				rec.Add("server", "add_roundtrip", 0, int64(f.ID()), at, f.At)
				delete(open, f.ID())
			}
		}
	}
	nAdd, addBytes := taps.Bytes(func(f *trace.Frame) bool { return f.Out && f.Type() == trace.TypeAdd })
	if nAdd > 0 {
		out.layers["wire.bytes_per_add"] = float64(addBytes) / float64(nAdd)
	}
	if n := len(sat.samples); n > 0 {
		out.layers["server.busy_frac"] = float64(sat.busy) / float64(n)
	}
	// Tracing overhead is read off the single phase: one request in
	// flight is the same work at any database size, whereas the saturated
	// rate depends on where the compactions fell.
	if base := out.named["add_single_p50_ms"].Value; base > 0 {
		one := single.tally.samples
		out.layers["trace.overhead_frac"] = latency(one, spanOf(one, 0), 0.5, time.Millisecond).val/base - 1
	}
	sort.Float64s(late)
	out.layers["gen.late_p95_ms"] = quantile(late, 0.95)
	if err := probePing(rec, rig.addr); err != nil {
		return nil, err
	}

	// The layers one by one, on a sample of the schedule.
	sample := plan.Saturate[0][:min(len(plan.Saturate[0]), 4096)]
	var raws []json.RawMessage
	var tokens []communix.Token
	var reqs []wire.Request
	var ups []store.Upload
	for _, u := range sample {
		raws = append(raws, u.Sig)
		reqs = append(reqs, rig.request(plan, u))
		if u.User >= 0 {
			tokens = append(tokens, rig.tokens[u.User])
		}
	}
	sigs, err := decodeAll(raws)
	if err != nil {
		return nil, err
	}
	for i, u := range sample {
		if u.User >= 0 {
			ups = append(ups, store.Upload{User: ids.UserID(u.User + 1), Sig: sigs[i]})
		}
	}
	if err := probeSig(out, rec, raws); err != nil {
		return nil, err
	}
	if err := probeIDs(rec, tokens); err != nil {
		return nil, err
	}
	if err := probeEncodeAdd(rec, rig.tokens[0], sigs); err != nil {
		return nil, err
	}
	storeDir, err := c.scratch("store-probe")
	if err != nil {
		return nil, err
	}
	if err := probeStore(out, rec, storeDir, ups); err != nil {
		return nil, err
	}
	serverDir, err := c.scratch("server-probe")
	if err != nil {
		return nil, err
	}
	if err := probeServer(rec, serverDir, reqs); err != nil {
		return nil, err
	}
	out.fillLayers(rec)
	return out, nil
}

// ---- catchup ----

// tracedBootstrap is bootstrapOnce with the poller assembled by hand
// (client + repository + agent + history), its calls in spans, and both
// machines' sockets tapped.
func tracedBootstrap(rec *trace.Recorder, taps *trace.FrameLog, addr string, app *gen.App, n int, round int64) (bootstrap, error) {
	var b bootstrap
	start := time.Now()
	root := rec.Begin("app", "bootstrap", 0, round)
	defer rec.End(root)
	full := make(chan struct{}, 1)
	pushed := 0
	sub, err := communix.NewNode(communix.NodeConfig{
		Dial: taps.Dial(tcp(addr)), Subscribe: true,
		OnSignatures: func(added int) {
			if pushed += added; pushed == n {
				full <- struct{}{}
			}
		},
	})
	if err != nil {
		return b, err
	}
	defer sub.Close()
	rp, err := repo.Open("")
	if err != nil {
		return b, err
	}
	hist := dimmunix.NewHistory()
	ag, err := agent.New(agent.Config{App: app.View, AppKey: "bench@new", Repo: rp, History: hist})
	if err != nil {
		return b, err
	}
	cl, err := client.New(client.Config{Dial: taps.Dial(tcp(addr)), Repo: rp})
	if err != nil {
		return b, err
	}
	defer cl.Close()
	id := rec.Begin("client", "synconce", root, round)
	b.polled, err = cl.SyncOnce()
	rec.EndUnits(id, b.polled)
	if err != nil {
		return b, err
	}
	select {
	case <-full:
	case <-time.After(roundTimeout):
		return b, fmt.Errorf("subscriber received %d of %d signatures", pushed, n)
	}
	b.pushed = pushed
	b.sync = time.Since(start)
	vStart := time.Now()
	id = rec.Begin("repo", "newsince", root, round)
	entries := rp.NewSince("probe")
	rec.EndUnits(id, len(entries))
	id = rec.Begin("agent", "run_startup", root, round)
	b.report, err = ag.RunStartup()
	rec.EndUnits(id, b.report.Inspected)
	if err != nil {
		return b, err
	}
	b.validate = time.Since(vStart)
	b.whole = time.Since(start)
	b.hist = hist.Len()
	return b, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func catchupLayers(c *config, addr string, app *gen.App, plan *gen.CatchupPlan, dbDir string, out *outcome) (*outcome, error) {
	rec := c.rec
	n := len(plan.Sigs)
	d := c.duration / 2
	boots, err := runBootstraps(plan, d, func(int) (bootstrap, error) {
		return bootstrapOnce(addr, app, n)
	})
	if err != nil {
		return nil, err
	}
	catchupMetrics(out, boots, n, d)
	taps := &trace.FrameLog{}
	traced, err := runBootstraps(plan, d, func(round int) (bootstrap, error) {
		return tracedBootstrap(rec, taps, addr, app, n, int64(round))
	})
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	report := traced[len(traced)-1].report
	tracedOut := newOutcome()
	catchupMetrics(tracedOut, traced, n, d)
	if untraced := out.named["catchup_p50_s"].Value; untraced > 0 {
		out.layers["trace.overhead_frac"] = tracedOut.named["catchup_p50_s"].Value/untraced - 1
	}
	if report.Inspected > 0 {
		out.layers["agent.accept_frac"] = float64(report.Accepted) / float64(report.Inspected)
	}
	if report.Accepted > 0 {
		out.layers["agent.merge_frac"] = float64(report.Merged) / float64(report.Accepted)
	}
	// A backlog this far past PushMaxLag is not pushed: the server sends
	// the subscriber a catch-up marker and both machines page GETs, so the
	// bytes per signature are over everything the server sent them.
	if _, inBytes := taps.Bytes(func(f *trace.Frame) bool { return !f.Out }); len(traced) > 0 {
		out.layers["wire.bytes_per_push_sig"] = float64(inBytes) / float64(2*n*len(traced))
	}
	if err := probePing(rec, addr); err != nil {
		return nil, err
	}

	// The read path's layers one by one.
	sigs, err := decodeAll(plan.Sigs)
	if err != nil {
		return nil, err
	}
	sampled := plan.Sigs[:min(n, 1024)]
	if err := probeSig(out, rec, sampled); err != nil {
		return nil, err
	}
	probeMerge(rec, sigs)
	if err := probeDecodePush(rec, plan.Sigs); err != nil {
		return nil, err
	}
	if err := probeRepo(rec, plan.Sigs); err != nil {
		return nil, err
	}
	// Recovery and paging on a copy of the database (the live server
	// holds the original's lock).
	dup := filepath.Join(c.root, "db-probe")
	if err := copyDir(dbDir, dup); err != nil {
		return nil, err
	}
	var st *store.Store
	timed(rec, "store", "open_recover", 1, func() { st, err = store.Open(store.Config{DataDir: dup}) })
	if err != nil {
		return nil, err
	}
	for from := 1; from <= st.Len(); {
		id := rec.Begin("store", "getpage", 0, 0)
		page, next, _ := st.GetPage(from, wire.MaxGetBatch, wire.MaxGetBytes)
		rec.EndUnits(id, len(page))
		if len(page) == 0 {
			break
		}
		from = next
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	srvDir := filepath.Join(c.root, "db-server-probe")
	if err := copyDir(dbDir, srvDir); err != nil {
		return nil, err
	}
	if err := probeServer(rec, srvDir, nil); err != nil {
		return nil, err
	}
	out.fillLayers(rec)
	return out, nil
}

// ---- lockpath ----

// deep calls fn under n extra stack frames.
//
//go:noinline
func deep(n int, fn func()) {
	if n > 0 {
		deep(n-1, fn)
		return
	}
	fn()
}

// probeCapture times the three ways a native stack is captured, sixteen
// frames deep: memoized, adaptive (shallow first) and from scratch.
func probeCapture(rec *trace.Recorder, hist *dimmunix.History) {
	reg := stacktrace.NewRegistry()
	cache := stacktrace.NewCache(reg)
	idx := hist.Index()
	deep(12, func() {
		for i := 0; i < 200; i++ {
			timed(rec, "stacktrace", "capture_cached", probeBatch, func() {
				for k := 0; k < probeBatch; k++ {
					_ = cache.Capture(0, stacktrace.DefaultDepth)
				}
			})
			timed(rec, "stacktrace", "capture_adaptive", probeBatch, func() {
				for k := 0; k < probeBatch; k++ {
					_ = cache.CaptureAdaptive(0, idx, 0, stacktrace.DefaultDepth)
				}
			})
			timed(rec, "stacktrace", "capture_uncached", probeBatch, func() {
				for k := 0; k < probeBatch; k++ {
					_ = stacktrace.Capture(reg, 0, stacktrace.DefaultDepth)
				}
			})
		}
	})
}

// probeAcquire times explicit Acquire/Release pairs — no capture, no
// goroutine-id lookup — with a stack no signature matches and with one
// that matches a history signature's outer stack.
func probeAcquire(rec *trace.Recorder, hist *dimmunix.History, padding []*communix.Signature) {
	rt := dimmunix.NewRuntime(dimmunix.Config{History: hist, Policy: dimmunix.RecoverBreak})
	defer rt.Close()
	lock := rt.NewLock("probe")
	r := newRand(7)
	unmatched := sigtest.Stack(r, sigtest.Vocabulary{Classes: 4, Methods: 4, Lines: 1 << 20}, 12, 12)
	pair := func(name string, cs sig.Stack) {
		for i := 0; i < 200; i++ {
			timed(rec, "dimmunix", name, probeBatch, func() {
				for k := 0; k < probeBatch; k++ {
					if rt.Acquire(1, lock, cs) == nil {
						_ = rt.Release(1, lock)
					}
				}
			})
		}
	}
	pair("acquire_unmatched", unmatched)
	if len(padding) > 0 {
		pair("acquire_matched", padding[0].Threads[0].Outer)
	}
}

// chanMachine is two capacity-1 channels filled in opposite orders by
// two goroutines: the channel form of a lock-order inversion.
type chanMachine struct {
	rt   *communix.ChanRuntime
	a, b *communix.Chan[int]
}

// spinUntil polls cond, yielding the processor, until it holds.
func spinUntil(cond func() bool) error {
	for deadline := time.Now().Add(roundTimeout); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return errors.New("channel probe: gate timed out")
		}
	}
	return nil
}

func (m *chanMachine) forward(mid func() error) error {
	if err := m.a.Send(1); err != nil {
		return err
	}
	if mid != nil {
		if err := mid(); err != nil {
			return err
		}
	}
	if err := m.b.Send(1); err != nil {
		m.a.TryRecv()
		return err
	}
	m.b.TryRecv()
	m.a.TryRecv()
	return nil
}

func (m *chanMachine) backward(pre, mid func() error) error {
	if pre != nil {
		if err := pre(); err != nil {
			return err
		}
	}
	if err := m.b.Send(2); err != nil {
		return err
	}
	if mid != nil {
		if err := mid(); err != nil {
			return err
		}
	}
	if err := m.a.Send(2); err != nil {
		m.b.TryRecv()
		return err
	}
	m.a.TryRecv()
	m.b.TryRecv()
	return nil
}

// probeChanDetect drives one channel deadlock on a fresh node and
// returns how long detection took from the cycle-closing send, in
// microseconds. Each goroutine completes a warm-up lap first: the
// detector only calls a cycle a deadlock among channels it has seen
// drained.
func probeChanDetect() (float64, error) {
	var detected time.Time
	node, err := communix.NewNode(communix.NodeConfig{
		Policy:     communix.RecoverBreak,
		OnDeadlock: func(communix.Deadlock) { detected = time.Now() },
	})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	m := &chanMachine{rt: node.ChanRuntime(),
		a: communix.NewChan[int](node, "sem-a", 1), b: communix.NewChan[int](node, "sem-b", 1)}
	var e1, e2 error
	var closing time.Time
	warm1, warm2 := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e1 = m.forward(nil)
		close(warm1)
		if e1 != nil {
			return
		}
		<-warm2
		e1 = m.forward(func() error {
			return spinUntil(func() bool { return m.b.Len() == 1 || m.rt.Waiting() >= 1 })
		})
	}()
	go func() {
		defer wg.Done()
		<-warm1
		e2 = m.backward(nil, nil)
		close(warm2)
		if e2 != nil {
			return
		}
		e2 = m.backward(
			func() error { return spinUntil(func() bool { return m.a.Len() == 1 }) },
			func() error {
				err := spinUntil(func() bool { return m.rt.Waiting() >= 1 || m.a.Len() == 0 })
				closing = time.Now()
				return err
			})
	}()
	wg.Wait()
	if !errors.Is(e1, communix.ErrChanDeadlock) && !errors.Is(e2, communix.ErrChanDeadlock) {
		return 0, fmt.Errorf("channel probe: expected a denied send, got %v / %v", e1, e2)
	}
	if detected.IsZero() || closing.IsZero() {
		return 0, errors.New("channel probe: deadlock was not reported")
	}
	return float64(detected.Sub(closing)) / 1e3, nil
}

// probeChan times instrumented channel pairs and selects against the
// native channel.
func probeChan(o *outcome, rec *trace.Recorder, node *communix.Node) error {
	ch := communix.NewChan[int](node, "probe", 1)
	var err error
	for i := 0; i < 100; i++ {
		timed(rec, "commdlk", "send_recv_probe", probeBatch, func() {
			for k := 0; k < probeBatch && err == nil; k++ {
				if err = ch.Send(k); err == nil {
					_, _, err = ch.Recv()
				}
			}
		})
		timed(rec, "commdlk", "select", 2*probeBatch, func() {
			for k := 0; k < probeBatch && err == nil; k++ {
				if _, err = communix.Select(communix.SendCase(ch, k)); err == nil {
					_, err = communix.Select(communix.RecvCase(ch, nil))
				}
			}
		})
	}
	if err != nil {
		return err
	}
	native := make(chan int, 1)
	const laps = 1 << 16
	t := time.Now()
	for k := 0; k < laps; k++ {
		native <- k
		<-native
	}
	raw := float64(time.Since(t)) / laps
	if a := rec.Summary()["commdlk.send_recv_probe"]; raw > 0 {
		o.layers["commdlk.raw_ratio"] = a.PerUnit() / raw
	}
	return nil
}

func lockLayers(c *config, rig *lockRig, plan *gen.LockPlan, sz lockSizes, workers int, d time.Duration, out *outcome) (*outcome, error) {
	rec := c.rec
	rt := rig.node.Runtime()
	before := rt.Stats()
	rt.ResetRefreshStats()
	tallies, err := rig.measureChecked(plan, sz, workers, d, rec)
	if err != nil {
		return nil, err
	}
	after := rt.Stats()
	tracedOut := newOutcome()
	lockMetrics(tracedOut, tallies, d)
	if base := out.named["app_ops_s"].Value; base > 0 {
		out.layers["trace.overhead_frac"] = base/tracedOut.named["app_ops_s"].Value - 1
	}
	if n := after.Acquisitions - before.Acquisitions; n > 0 {
		out.layers["dimmunix.yield_frac"] = float64(after.Yields-before.Yields) / float64(n)
		out.layers["dimmunix.contended_frac"] = float64(after.Contended-before.Contended) / float64(n)
	}
	deltaN, fullN := rt.RefreshCounts()
	deltaNS, _ := rt.RefreshNanos()
	if deltaN > 0 {
		out.layers["dimmunix.refresh_delta_ns"] = float64(deltaNS) / float64(deltaN)
	}
	out.layers["dimmunix.refresh_full_count"] = float64(fullN)
	out.layers["dimmunix.detect_us"] = median(rig.detectUS)

	hist := rig.node.History()
	probeCapture(rec, hist)
	probeAcquire(rec, hist, plan.Padding)
	scratch := dimmunix.NewHistory()
	for _, s := range plan.Padding {
		timed(rec, "dimmunix", "history_add", 1, func() { scratch.Add(s) })
	}
	if err := probeChan(out, rec, rig.node); err != nil {
		return nil, err
	}
	if out.layers["commdlk.detect_us"], err = probeChanDetect(); err != nil {
		return nil, err
	}
	out.fillLayers(rec)
	return out, nil
}
