package agent

import (
	"time"

	"communix/internal/chunk"
	"communix/internal/sig"
)

// Validate is a pass's per-entry check, for the external tests'
// one-at-a-time reference pass.
func (a *Agent) Validate(s *sig.Signature, nested map[string]struct{}) (*sig.Signature, Verdict) {
	return a.validate(s, nested)
}

// StartupPhases runs RunStartup's pass with its two phases apart —
// every chunk prepared, then every chunk folded — and returns how long
// each took. It leaves the repository's cursor where it was.
func (a *Agent) StartupPhases() (prepare, fold time.Duration, rep Report) {
	entries := a.cfg.Repo.NewSince(a.cfg.AppKey)
	p := a.newPass(entries, &rep)
	start := time.Now()
	chunk.Run(len(entries), p.prepare, nil)
	prepare = time.Since(start)
	start = time.Now()
	for lo := 0; lo < len(entries); lo += chunk.Size {
		p.fold(lo, min(lo+chunk.Size, len(entries)))
	}
	return prepare, time.Since(start), rep
}
