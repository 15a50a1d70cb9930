package dimmunix

import (
	"communix/internal/sig"
	"communix/internal/stacktrace"
)

// Mutex is the native Go entry point to Dimmunix: a reentrant mutex whose
// acquisitions are fingerprinted, matched against the deadlock history,
// and scheduled by the avoidance module. It replaces sync.Mutex in
// programs that want deadlock immunity — Go offers no interposition on
// sync.Mutex, so participation is explicit (the manual-wrapping model the
// reproduction notes call out).
//
// Create with Runtime.NewMutex. The zero value is not usable.
type Mutex struct {
	rt   *Runtime
	lock *Lock
}

// NewMutex creates a managed mutex. The name appears in diagnostics.
func (rt *Runtime) NewMutex(name string) *Mutex {
	return &Mutex{rt: rt, lock: rt.NewLock(name)}
}

// Lock acquires the mutex, capturing the caller's goroutine id and call
// stack. It returns ErrDeadlock when this acquisition closed a detected
// deadlock cycle under RecoverBreak, or ErrClosed after runtime shutdown.
// Stack capture goes through the runtime's memoization cache and is
// adaptive: a shallow prefix (stacktrace.DefaultShallowDepth frames) is
// captured first, and only when the avoidance index knows the top site —
// a potential signature match — is the stack deepened to
// stacktrace.DefaultDepth. Repeated call paths skip frame symbolization
// either way.
func (m *Mutex) Lock() error {
	tid := ThreadID(stacktrace.GoroutineID())
	idx := m.rt.history.Index()
	cs := m.rt.capture.CaptureAdaptive(1, idx, stacktrace.DefaultShallowDepth, stacktrace.DefaultDepth)
	// The shallow-depth decision is only trustworthy against the
	// capture-time index (CaptureAdaptive floors the depth at its deepest
	// matcher). If a newer index was published meanwhile — a concurrent
	// install could carry a deeper matcher a truncated stack cannot
	// suffix-match — recapture at full depth; the acquisition path
	// re-validates against the same pointer.
	if m.rt.history.idx.Load() != idx {
		cs = m.rt.capture.Capture(1, stacktrace.DefaultDepth)
	}
	return m.rt.Acquire(tid, m.lock, cs)
}

// LockAt acquires the mutex with an explicit call stack, for callers that
// construct stacks themselves (simulated workloads).
func (m *Mutex) LockAt(tid ThreadID, cs sig.Stack) error {
	return m.rt.Acquire(tid, m.lock, cs)
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() error {
	tid := ThreadID(stacktrace.GoroutineID())
	return m.rt.Release(tid, m.lock)
}

// UnlockAt releases the mutex on behalf of an explicit thread id.
func (m *Mutex) UnlockAt(tid ThreadID) error {
	return m.rt.Release(tid, m.lock)
}
