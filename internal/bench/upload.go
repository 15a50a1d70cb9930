// Upload burst: the CI chaos smoke's write load. A deterministic
// stream of distinct signatures is pushed at a replicated cell with the
// real client retry discipline — chase NotPrimary redirects, ride out
// Busy and dead-connection windows, never count an upload until a
// server acknowledged it. Because the signatures are deterministic in
// the seed and pairwise distinct, "the database holds exactly N
// signatures afterwards" is the whole zero-loss/zero-duplicate check:
// a lost acknowledged upload shrinks the count, a double commit grows
// it.
package bench

import (
	"fmt"
	"io"
	"net"
	"time"

	"communix/internal/ids"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"

	"math/rand"
)

// UploadBurstConfig parameterizes one burst.
type UploadBurstConfig struct {
	// Addrs are the cell members to try, in preference order.
	Addrs []string
	// Token is the encrypted user token (server -mint output).
	Token string
	// N is the number of distinct signatures to upload (default 20).
	N int
	// Seed makes the signature stream deterministic; bursts with
	// different seeds never collide (default 1).
	Seed int
	// TimeoutSec bounds the whole burst, retries included (default 60).
	TimeoutSec int
}

// UploadBurst uploads N distinct signatures, retrying each until some
// cell member acknowledges it, and returns the acknowledged count
// (equal to N unless it errors out at the deadline).
func UploadBurst(cfg UploadBurstConfig, out io.Writer) (int, error) {
	if len(cfg.Addrs) == 0 {
		return 0, fmt.Errorf("bench: upload: no addresses")
	}
	if cfg.Token == "" {
		return 0, fmt.Errorf("bench: upload: no user token")
	}
	if cfg.N <= 0 {
		cfg.N = 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.TimeoutSec <= 0 {
		cfg.TimeoutSec = 60
	}
	deadline := time.Now().Add(time.Duration(cfg.TimeoutSec) * time.Second)
	token := ids.Token(cfg.Token)
	r := rand.New(rand.NewSource(int64(cfg.Seed)))
	reqs := make([]wire.Request, cfg.N)
	for i := range reqs {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, cfg.Seed*1000000+i, 6, 9)
		req, err := wire.NewAdd(token, s)
		if err != nil {
			return 0, fmt.Errorf("bench: upload: %w", err)
		}
		reqs[i] = req
	}
	preferred := cfg.Addrs[0]
	acked := 0
	for i, req := range reqs {
		for {
			order := []string{preferred}
			for _, a := range cfg.Addrs {
				if a != preferred {
					order = append(order, a)
				}
			}
			done := false
			for _, addr := range order {
				conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					continue
				}
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				c := wire.NewConn(conn)
				var resp wire.Response
				if _, err = c.Hello(0, ""); err == nil {
					req.ID = 2
					if err = c.Send(req); err == nil {
						err = c.Recv(&resp)
					}
				}
				conn.Close()
				if err != nil {
					continue
				}
				switch resp.Status {
				case wire.StatusOK:
					preferred = addr
					done = true
				case wire.StatusNotPrimary:
					if resp.Primary != "" {
						preferred = resp.Primary
					}
				case wire.StatusRejected:
					// Admission rejections (rate limit, adjacency) are
					// configuration errors, not transients: fail loudly.
					return acked, fmt.Errorf("bench: upload %d rejected by %s: %s", i, addr, resp.Detail)
				}
				if done {
					break
				}
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				return acked, fmt.Errorf("bench: upload %d/%d: no acknowledgement before deadline", i, cfg.N)
			}
			time.Sleep(50 * time.Millisecond)
		}
		acked++
	}
	fmt.Fprintf(out, "upload burst: %d/%d signatures acknowledged (seed %d)\n", acked, cfg.N, cfg.Seed)
	return acked, nil
}
