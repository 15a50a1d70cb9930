package bench

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"communix/internal/ids"
	"communix/internal/server"
	"communix/internal/wire"
)

// Fig3Config parameterizes the end-to-end distribution experiment
// (Figure 3): the server runs behind TCP and N client threads each send
// SeqPerClient "ADD(sig),GET(0)" sequences.
type Fig3Config struct {
	// ClientCounts are the x-axis points; default 10..200 as in the
	// paper.
	ClientCounts []int
	// SeqPerClient is the number of ADD+GET sequences per client
	// (paper: 10).
	SeqPerClient int
	// Scale divides client counts for quick runs.
	Scale int
}

// DefaultFig3ClientCounts mirrors the paper's x axis.
func DefaultFig3ClientCounts() []int { return []int{10, 20, 30, 40, 50, 75, 100, 200} }

// Fig3Point is one measurement.
type Fig3Point struct {
	Clients int
	// Requests is the total number of requests served.
	Requests int
	Elapsed  time.Duration
	// PerClientReqPerSec is the figure's y axis: replies per second
	// observed by one client thread.
	PerClientReqPerSec float64
	// AggregateReqPerSec is the server-side total.
	AggregateReqPerSec float64
	// BytesReturned approximates the GET reply volume (the network
	// bottleneck the paper identifies).
	BytesReturned int64
}

// Fig3 runs the sweep; every point gets a fresh server and loopback
// listener.
func Fig3(cfg Fig3Config) ([]Fig3Point, error) {
	counts := cfg.ClientCounts
	if len(counts) == 0 {
		counts = DefaultFig3ClientCounts()
	}
	seqs := cfg.SeqPerClient
	if seqs <= 0 {
		seqs = 10
	}
	scale := cfg.Scale
	if scale < 1 {
		scale = 1
	}
	out := make([]Fig3Point, 0, len(counts))
	for _, raw := range counts {
		n := raw / scale
		if n < 1 {
			n = 1
		}
		p, err := fig3Point(n, seqs)
		if err != nil {
			return nil, err
		}
		p.Clients = raw
		out = append(out, p)
	}
	return out, nil
}

func fig3Point(clients, seqs int) (Fig3Point, error) {
	srv, err := server.New(server.Config{Key: DefaultKey, MaxPerDay: 1 << 30})
	if err != nil {
		return Fig3Point{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Fig3Point{}, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	auth, err := ids.NewAuthority(DefaultKey)
	if err != nil {
		return Fig3Point{}, err
	}

	// Pre-build each client's ADD requests.
	reqs := make([][]wire.Request, clients)
	for c := 0; c < clients; c++ {
		_, token := auth.Issue()
		reqs[c] = make([]wire.Request, seqs)
		for s := 0; s < seqs; s++ {
			req, err := wire.NewAdd(token, benchSignature(c*seqs+s))
			if err != nil {
				return Fig3Point{}, err
			}
			reqs[c][s] = req
		}
	}

	var bytesReturned int64
	var bytesMu sync.Mutex
	errs := make(chan error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			wc := wire.NewConn(conn)
			if _, err := wc.Hello(0, ""); err != nil {
				errs <- err
				return
			}
			<-start
			var local int64
			for s := 0; s < seqs; s++ {
				var resp wire.Response
				add := reqs[c][s]
				add.ID = uint64(2*s + 2)
				if err := wc.Send(add); err != nil {
					errs <- err
					return
				}
				if err := wc.Recv(&resp); err != nil {
					errs <- err
					return
				}
				if resp.Status != wire.StatusOK {
					errs <- fmt.Errorf("fig3: ADD rejected: %s", resp.Detail)
					return
				}
				get := wire.NewGet(0)
				get.ID = uint64(2*s + 3)
				if err := wc.Send(get); err != nil {
					errs <- err
					return
				}
				resp = wire.Response{}
				if err := wc.Recv(&resp); err != nil {
					errs <- err
					return
				}
				for _, raw := range resp.Sigs {
					local += int64(len(raw))
				}
			}
			bytesMu.Lock()
			bytesReturned += local
			bytesMu.Unlock()
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errs:
		return Fig3Point{}, err
	default:
	}

	total := clients * seqs * 2
	return Fig3Point{
		Requests:           total,
		Elapsed:            elapsed,
		PerClientReqPerSec: float64(seqs*2) / elapsed.Seconds(),
		AggregateReqPerSec: float64(total) / elapsed.Seconds(),
		BytesReturned:      bytesReturned,
	}, nil
}

// WriteFig3 renders the figure as text.
func WriteFig3(w io.Writer, points []Fig3Point) {
	fmt.Fprintln(w, "Figure 3: end-to-end signature distribution over TCP (10 ADD+GET(0) per client)")
	fmt.Fprintln(w, "  clients   requests   elapsed        req/s/client   aggregate req/s   GET bytes")
	for _, p := range points {
		fmt.Fprintf(w, "  %6d  %9d   %-12v %12.1f %15.0f   %10d\n",
			p.Clients, p.Requests, p.Elapsed.Round(time.Millisecond),
			p.PerClientReqPerSec, p.AggregateReqPerSec, p.BytesReturned)
	}
}
