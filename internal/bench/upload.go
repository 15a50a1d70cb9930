// Upload burst: the CI chaos smoke's write load. A deterministic
// stream of distinct signatures is pushed at a replicated cell through
// the real client (internal/client): its rotation past dead or busy
// members, its NotPrimary redirects and its busy retries, with each
// upload retried until a server acknowledged it. Because the signatures
// are deterministic in the seed and pairwise distinct, "the database
// holds exactly N signatures afterwards" is the whole
// zero-loss/zero-duplicate check: a lost acknowledged upload shrinks
// the count, a double commit grows it.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"communix/internal/client"
	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/sig/sigtest"
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
	// TimeoutSec bounds the whole burst: no upload is retried past it
	// (default 60). One attempt is bounded by the client's own dial and
	// round-trip timeouts.
	TimeoutSec int
}

// UploadBurst uploads N distinct signatures, retrying each until some
// cell member acknowledges it, and returns the acknowledged count
// (equal to N unless it errors out at the deadline, or at once on an
// upload the cell rejects). A retried upload is safe: the server
// answers an ADD it already holds "duplicate".
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
	rp, err := repo.Open("")
	if err != nil {
		return 0, fmt.Errorf("bench: upload: %w", err)
	}
	c, err := client.New(client.Config{
		Addr:  cfg.Addrs[0],
		Peers: cfg.Addrs[1:],
		Repo:  rp,
		Token: ids.Token(cfg.Token),
	})
	if err != nil {
		return 0, fmt.Errorf("bench: upload: %w", err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(int64(cfg.Seed)))
	for i := 0; i < cfg.N; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, cfg.Seed*1000000+i, 6, 9)
		for {
			err := c.Upload(s)
			if err == nil {
				break
			}
			if errors.Is(err, client.ErrRejected) {
				return i, fmt.Errorf("bench: upload %d/%d: %w", i, cfg.N, err)
			}
			if time.Now().After(deadline) {
				return i, fmt.Errorf("bench: upload %d/%d: no acknowledgement before deadline: %w", i, cfg.N, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	fmt.Fprintf(out, "upload burst: %d/%d signatures acknowledged (seed %d)\n", cfg.N, cfg.N, cfg.Seed)
	return cfg.N, nil
}
