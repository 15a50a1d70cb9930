//go:build !race

package commdlk

import (
	"runtime"
	"testing"
	"time"

	"communix/internal/dimmunix"
)

// This file holds tests that close a channel while a send blocks on it.
// The Go memory model calls that a data race (nothing orders the close
// after the blocked send), and the race detector reports it even though
// the runtime behaves as specified, so the file is left out of -race
// builds.

// TestBlockedSendWithdrawnOnClose: a Send, or a Select's send case,
// blocked when its channel is closed panics as a native send does, and
// its wait leaves the graph first: afterwards the runtime counts no
// waiting op.
func TestBlockedSendWithdrawnOnClose(t *testing.T) {
	for name, send := range map[string]func(c *Chan[int]) error{
		"send":   func(c *Chan[int]) error { return c.Send(2) },
		"select": func(c *Chan[int]) error { _, err := Select(SendCase(c, 2)); return err },
	} {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime(dimmunix.NewRuntime(dimmunix.Config{}), Config{})
			defer rt.Close()
			c := NewChan[int](rt, "full", 1)
			if err := c.Send(1); err != nil {
				t.Fatal(err)
			}
			recovered := make(chan any, 1)
			go func() {
				defer func() { recovered <- recover() }()
				_ = send(c)
			}()
			deadline := time.Now().Add(10 * time.Second)
			for rt.Waiting() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("the second send never blocked")
				}
				time.Sleep(time.Millisecond)
			}
			c.Close()
			select {
			case r := <-recovered:
				if err, ok := r.(runtime.Error); !ok || err.Error() != "send on closed channel" {
					t.Fatalf("blocked send recovered %v, want the native send-on-closed panic", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the blocked send did not return after Close")
			}
			if n := rt.Waiting(); n != 0 {
				t.Fatalf("Waiting() = %d after the blocked send panicked, want 0", n)
			}
		})
	}
}
