// Package good is the clean twin of lockorder/bad: every multi-lock path
// uses one global order, and the shapes that look like inversions to a
// flow-insensitive checker — goroutine bodies re-acquiring the spawn-site
// lock, callbacks registered under a lock that take it again when they fire,
// hand-over-hand release/re-acquire — are all ordinary.
package good

import "sync"

// Pair always orders a before b.
type Pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// Both acquires in the global order.
func (p *Pair) Both() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock()
	defer p.b.Unlock()
	p.n++
}

// AOnly and BOnly each take a single lock: no ordering constraint.
func (p *Pair) AOnly() {
	p.a.Lock()
	defer p.a.Unlock()
	p.n++
}

func (p *Pair) BOnly() {
	p.b.Lock()
	defer p.b.Unlock()
	p.n--
}

// System mirrors the runtime shapes the analyzer must not flag.
type System struct {
	mu      sync.Mutex
	running int
	done    chan struct{}
}

func (s *System) finish() { close(s.done) }

// Launch holds mu while spawning a goroutine whose body re-acquires mu: the
// spawned body is not part of Launch's synchronous flow, so there is no
// self-cycle (the node.Node.launch shape).
func (s *System) Launch(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running++
	go func() {
		f()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.running--
		if s.running == 0 {
			s.finish()
		}
	}()
}

// Register holds mu while handing a callback to an external scheduler; the
// callback re-acquires mu when it later fires on another goroutine (the
// time.AfterFunc shape in fault).
func (s *System) Register(after func(func())) {
	s.mu.Lock()
	defer s.mu.Unlock()
	after(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.running++
	})
}

// HandOver releases mu before retaking it (the journal group-commit leader
// shape): no ordering edge, the two critical sections are disjoint.
func (s *System) HandOver() {
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
}

// EarlyOut releases on the early-return path and falls through to a second
// lock otherwise: the branch-sensitive walk must not see mu held at the
// second acquisition.
func (s *System) EarlyOut(p *Pair) {
	s.mu.Lock()
	if s.running == 0 {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	p.a.Lock()
	defer p.a.Unlock()
	p.n++
}
