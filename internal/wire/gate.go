package wire

import (
	"context"
	"sync"
	"sync/atomic"
)

// Gate admits a front end's requests and drains them: the server and
// the coordinator each hold one. Begin admits a request unless the
// gate is draining, and the request calls End when done, streaming
// responses included; Drain stops admitting and waits for the admitted
// ones. The zero Gate admits.
//
// The in-flight count is a mutex-guarded counter rather than a
// sync.WaitGroup: it legitimately reaches zero while new Begin calls
// race a waiting Drain, which is exactly the Add-concurrent-with-Wait
// pattern WaitGroup forbids.
type Gate struct {
	draining atomic.Bool
	mu       sync.Mutex
	inflight int
	// idle is non-nil while a Drain waits for inflight to reach zero;
	// the End that takes the counter to zero closes it.
	idle chan struct{}
}

// Begin admits one request unless the gate is draining; it reports
// whether the caller may proceed (and must call End when done).
func (g *Gate) Begin() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining.Load() {
		return false
	}
	g.inflight++
	return true
}

// End marks one admitted request done.
func (g *Gate) End() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
	g.mu.Unlock()
}

// StartDrain stops admitting requests without waiting.
func (g *Gate) StartDrain() { g.draining.Store(true) }

// Draining reports whether StartDrain or Drain has been called.
func (g *Gate) Draining() bool { return g.draining.Load() }

// Drain is StartDrain plus the wait: it returns nil once every admitted
// request has ended, or ctx's error if ctx expires first. It is
// idempotent and safe to call concurrently.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining.Store(true)
	if g.inflight == 0 {
		g.mu.Unlock()
		return nil
	}
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	idle := g.idle
	g.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
