// Package plugin implements the Communix plugin (§III-A/B): the component
// layered on Dimmunix that, right after a deadlock signature is produced,
// attaches the per-frame code-unit hashes and uploads the signature to
// the Communix server.
//
// Uploads happen on a dedicated worker goroutine so that the deadlocking
// application thread (whose Acquire triggered detection) never blocks on
// the network. That thread only queues the detector's signature; the
// worker copies it, stamps the copy and uploads it.
package plugin

import (
	"errors"
	"sync"

	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// Uploader publishes signatures to the Communix server; *client.Client
// implements it.
type Uploader interface {
	Upload(*sig.Signature) error
}

// Hasher resolves code-unit hashes; bytecode.View and the applications'
// own registries implement it.
type Hasher interface {
	UnitHash(unit string) (hash string, ok bool)
}

// Config parameterizes a Plugin.
type Config struct {
	// Uploader publishes signatures. Required.
	Uploader Uploader
	// Hasher fills in hashes for frames that lack one. Optional: frames
	// captured from modelled applications already carry hashes.
	Hasher Hasher
	// OnResult, if set, observes every upload outcome.
	OnResult func(s *sig.Signature, err error)
	// QueueSize bounds the upload backlog; further signatures are dropped
	// (and reported through OnResult). Default 64.
	QueueSize int
}

// Plugin uploads freshly detected deadlock signatures.
type Plugin struct {
	cfg   Config
	queue chan *sig.Signature
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// ErrQueueFull reports a dropped upload (backlog exceeded).
var ErrQueueFull = errors.New("plugin: upload queue full")

// ErrClosed reports an upload after Close.
var ErrClosed = errors.New("plugin: closed")

// New builds and starts a plugin.
func New(cfg Config) (*Plugin, error) {
	if cfg.Uploader == nil {
		return nil, errors.New("plugin: Uploader is required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	p := &Plugin{cfg: cfg, queue: make(chan *sig.Signature, cfg.QueueSize)}
	p.wg.Add(1)
	go p.worker()
	return p, nil
}

// HandleDeadlock is wired as (or called from) dimmunix.Config.OnDeadlock:
// it queues the new signature for upload and returns. It runs on the
// thread that closed the cycle, so it neither copies nor modifies
// d.Signature, which is the history's read-only instance: the worker
// stamps a copy. Reoccurrences of known signatures are not re-uploaded.
func (p *Plugin) HandleDeadlock(d dimmunix.Deadlock) {
	if d.Known || d.Signature == nil {
		return
	}
	err := ErrClosed
	p.mu.Lock()
	if !p.closed {
		select {
		case p.queue <- d.Signature:
			err = nil
		default:
			err = ErrQueueFull
		}
	}
	p.mu.Unlock()
	if err != nil {
		p.report(p.stamped(d.Signature), err)
	}
}

// stamped returns a copy of s with code-unit hashes attached to the
// frames that lack them (§III-C: "the plugin attaches to each call stack
// frame the hash of the class bytecode containing that frame").
func (p *Plugin) stamped(s *sig.Signature) *sig.Signature {
	s = s.Clone()
	if p.cfg.Hasher == nil {
		return s
	}
	fill := func(cs sig.Stack) {
		for i := range cs {
			if cs[i].Hash != "" {
				continue
			}
			if h, ok := p.cfg.Hasher.UnitHash(cs[i].Class); ok {
				cs[i].Hash = h
			}
		}
	}
	for i := range s.Threads {
		fill(s.Threads[i].Outer)
		fill(s.Threads[i].Inner)
	}
	s.Normalize()
	return s
}

func (p *Plugin) worker() {
	defer p.wg.Done()
	for s := range p.queue {
		s = p.stamped(s)
		p.report(s, p.cfg.Uploader.Upload(s))
	}
}

func (p *Plugin) report(s *sig.Signature, err error) {
	if p.cfg.OnResult != nil {
		p.cfg.OnResult(s, err)
	}
}

// Close drains the queue and stops the worker.
func (p *Plugin) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}
