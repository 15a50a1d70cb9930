package commdlk

import (
	"errors"
	"reflect"

	"communix/internal/sig"
	"communix/internal/stacktrace"
)

// Chan is a native Go channel instrumented for communication-deadlock
// immunity. Send, Recv and Select each run one critical section
// (Runtime.enter) that passes the host's avoidance gate (it may park if
// completing would instantiate a known signature), tries the native op
// without blocking, and records the completion or registers the op's
// wait in the waits-for graph and runs detection. A registered op then
// performs the real native blocking op — releasable by Runtime.Close —
// and withdraws its wait in a second one (Runtime.await), also when the
// native op panics.
//
// Close semantics mirror native channels: Close closes the underlying
// channel (double close panics, send on closed panics); Recv on a
// closed drained channel returns ok=false immediately.
type Chan[T any] struct {
	ch   chan T
	core *chanCore
}

// NewChan builds an instrumented channel. name labels the channel in
// diagnostics; capacity is the native buffer size.
func NewChan[T any](rt *Runtime, name string, capacity int) *Chan[T] {
	ch := make(chan T, capacity)
	return &Chan[T]{
		ch: ch,
		core: &chanCore{
			rt:        rt,
			name:      name,
			capacity:  capacity,
			buffered:  func() int { return len(ch) },
			sendUsers: make(map[uint64]usage),
			recvUsers: make(map[uint64]usage),
		},
	}
}

// Name returns the channel's diagnostic label.
func (c *Chan[T]) Name() string { return c.core.name }

// Cap returns the channel's buffer capacity.
func (c *Chan[T]) Cap() int { return cap(c.ch) }

// Len returns the number of buffered items.
func (c *Chan[T]) Len() int { return len(c.ch) }

// Send sends v, blocking until capacity (or a receiver) is available.
// Under RecoverBreak it returns ErrDeadlock if the wait closed a
// detected cycle; ErrClosed if the runtime shut down while blocked.
func (c *Chan[T]) Send(v T) error {
	rt := c.core.rt
	if rt.cfg.GraphDisabled {
		c.ch <- v
		return nil
	}
	gid := stacktrace.GoroutineID()
	cs := rt.captureOp(1, sig.KindChanSend)
	op, _, err := rt.enter(gid, cs, sig.KindChanSend, []opCase{{c.core, dirSend}}, func() int {
		select {
		case c.ch <- v:
			return 0
		default:
			return -1
		}
	})
	if op == nil {
		return err
	}
	if rt.await(op, func() int {
		select {
		case c.ch <- v:
			return 0
		case <-rt.closedCh:
			return -1
		}
	}) < 0 {
		return ErrClosed
	}
	return nil
}

// Recv receives a value, blocking until one (or a close) is available.
// ok is false when the channel is closed and drained. Under
// RecoverBreak it returns ErrDeadlock if the wait closed a detected
// cycle; ErrClosed if the runtime shut down while blocked.
func (c *Chan[T]) Recv() (v T, ok bool, err error) {
	rt := c.core.rt
	if rt.cfg.GraphDisabled {
		v, ok = <-c.ch
		return v, ok, nil
	}
	gid := stacktrace.GoroutineID()
	cs := rt.captureOp(1, sig.KindChanRecv)
	op, _, err := rt.enter(gid, cs, sig.KindChanRecv, []opCase{{c.core, dirRecv}}, func() int {
		select {
		case v, ok = <-c.ch:
			return 0
		default:
			return -1
		}
	})
	if op == nil {
		return v, ok, err
	}
	if rt.await(op, func() int {
		select {
		case v, ok = <-c.ch:
			return 0
		case <-rt.closedCh:
			return -1
		}
	}) < 0 {
		return v, false, ErrClosed
	}
	return v, ok, nil
}

// TrySend attempts a non-blocking send. Try ops cannot deadlock, so
// they skip the avoidance gate and the graph; they still record usage
// so the detector learns the channel's senders.
func (c *Chan[T]) TrySend(v T) bool {
	select {
	case c.ch <- v:
	default:
		return false
	}
	if rt := c.core.rt; !rt.cfg.GraphDisabled {
		rt.record(opCase{c.core, dirSend}, stacktrace.GoroutineID(), rt.captureOp(1, sig.KindChanSend), sig.KindChanSend)
	}
	return true
}

// TryRecv attempts a non-blocking receive. received reports whether a
// value (or a closed-channel zero value, with ok=false) was taken.
func (c *Chan[T]) TryRecv() (v T, ok bool, received bool) {
	select {
	case v, ok = <-c.ch:
	default:
		return v, false, false
	}
	if rt := c.core.rt; !rt.cfg.GraphDisabled {
		rt.record(opCase{c.core, dirRecv}, stacktrace.GoroutineID(), rt.captureOp(1, sig.KindChanRecv), sig.KindChanRecv)
	}
	return v, ok, true
}

// Close closes the underlying channel, with native semantics: blocked
// receivers drain and observe ok=false; a double close panics.
func (c *Chan[T]) Close() { close(c.ch) }

// SelectCase is one case of a Select: build with SendCase or RecvCase.
type SelectCase struct {
	opCase
	rcase   reflect.SelectCase
	deliver func(v reflect.Value, ok bool)
}

// SendCase makes a Select case that sends v on c.
func SendCase[T any](c *Chan[T], v T) SelectCase {
	return SelectCase{
		opCase: opCase{c.core, dirSend},
		rcase: reflect.SelectCase{
			Dir:  reflect.SelectSend,
			Chan: reflect.ValueOf(c.ch),
			Send: reflect.ValueOf(v),
		},
	}
}

// RecvCase makes a Select case that receives from c, delivering the
// value to fn (which may be nil to discard it). ok is false when the
// channel is closed and drained.
func RecvCase[T any](c *Chan[T], fn func(v T, ok bool)) SelectCase {
	return SelectCase{
		opCase: opCase{c.core, dirRecv},
		rcase: reflect.SelectCase{
			Dir:  reflect.SelectRecv,
			Chan: reflect.ValueOf(c.ch),
		},
		deliver: func(rv reflect.Value, ok bool) {
			if fn == nil {
				return
			}
			var v T
			if ok {
				v = rv.Interface().(T)
			}
			fn(v, ok)
		},
	}
}

// errEmptySelect is returned by Select with no cases (a native empty
// select blocks forever; the instrumented one refuses).
var errEmptySelect = errors.New("commdlk: select with no cases")

// Select performs an instrumented select over the cases: it blocks
// until one case can proceed, completes it, and returns its index. A
// blocked select registers one disjunctive node in the waits-for graph
// — it is stuck only if every case is stuck. All cases must belong to
// channels of the same Runtime. Under RecoverBreak it returns
// ErrDeadlock if the wait closed a detected cycle; ErrClosed if the
// runtime shut down while blocked.
func Select(cases ...SelectCase) (int, error) {
	if len(cases) == 0 {
		return -1, errEmptySelect
	}
	rt := cases[0].core.rt
	scs := make([]reflect.SelectCase, len(cases)+1)
	for i := range cases {
		scs[i] = cases[i].rcase
	}
	var (
		chosen int
		rv     reflect.Value
		ok     bool
		err    error
	)
	if rt.cfg.GraphDisabled {
		chosen, rv, ok = reflect.Select(scs[:len(cases)])
	} else {
		gid := stacktrace.GoroutineID()
		cs := rt.captureOp(1, sig.KindChanSelect)
		ocs := make([]opCase, len(cases))
		for i := range cases {
			ocs[i] = cases[i].opCase
		}
		scs[len(cases)] = reflect.SelectCase{Dir: reflect.SelectDefault}
		var op *blockedOp
		op, chosen, err = rt.enter(gid, cs, sig.KindChanSelect, ocs, func() int {
			var i int
			if i, rv, ok = reflect.Select(scs); i == len(cases) {
				return -1
			}
			return i
		})
		if op != nil {
			// One disjunctive wait, released by any case or Close.
			scs[len(cases)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(rt.closedCh)}
			if chosen = rt.await(op, func() int {
				var i int
				if i, rv, ok = reflect.Select(scs); i == len(cases) {
					return -1
				}
				return i
			}); chosen < 0 {
				err = ErrClosed
			}
		}
		if chosen < 0 {
			return -1, err
		}
	}
	if cases[chosen].deliver != nil {
		cases[chosen].deliver(rv, ok)
	}
	return chosen, nil
}
