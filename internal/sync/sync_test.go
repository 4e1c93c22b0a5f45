package sync

import (
	"testing"
	"time"
)

func TestEstimatorFirstSampleReplacesGuess(t *testing.T) {
	e := NewEstimator(50*time.Millisecond, time.Millisecond, time.Second)
	if got := e.SRTT(); got != 50*time.Millisecond {
		t.Fatalf("initial SRTT = %v, want the 50ms guess", got)
	}
	e.Observe(8 * time.Millisecond)
	s := e.Stats()
	if s.SRTT != 8*time.Millisecond || s.RTTVar != 4*time.Millisecond {
		t.Fatalf("after first sample: srtt=%v rttvar=%v, want 8ms/4ms", s.SRTT, s.RTTVar)
	}
	if s.Samples != 1 {
		t.Fatalf("samples = %d, want 1", s.Samples)
	}
}

func TestEstimatorJacobsonUpdate(t *testing.T) {
	e := NewEstimator(0, time.Millisecond, time.Second)
	e.Observe(80 * time.Millisecond) // primes: srtt=80ms, rttvar=40ms
	e.Observe(40 * time.Millisecond)
	s := e.Stats()
	// rttvar += (|40-80| - 40)/4 = 0 → 40ms; srtt += (40-80)/8 = -5ms → 75ms.
	if s.SRTT != 75*time.Millisecond {
		t.Errorf("srtt = %v, want 75ms", s.SRTT)
	}
	if s.RTTVar != 40*time.Millisecond {
		t.Errorf("rttvar = %v, want 40ms", s.RTTVar)
	}
	if want := 75*time.Millisecond + 4*40*time.Millisecond; s.RTO != want {
		t.Errorf("RTO = %v, want %v", s.RTO, want)
	}
}

func TestEstimatorRTOClamped(t *testing.T) {
	e := NewEstimator(0, 10*time.Millisecond, 100*time.Millisecond)
	e.Observe(time.Microsecond)
	if got := e.RTO(); got != 10*time.Millisecond {
		t.Errorf("tiny samples: RTO = %v, want the 10ms floor", got)
	}
	for i := 0; i < 20; i++ {
		e.Observe(5 * time.Second)
	}
	if got := e.RTO(); got != 100*time.Millisecond {
		t.Errorf("huge samples: RTO = %v, want the 100ms cap", got)
	}
}

func TestEstimatorConvergesDownAfterSpike(t *testing.T) {
	e := NewEstimator(0, time.Millisecond, 10*time.Second)
	e.Observe(time.Second)
	for i := 0; i < 200; i++ {
		e.Observe(2 * time.Millisecond)
	}
	if got := e.SRTT(); got > 5*time.Millisecond {
		t.Errorf("after 200 fast samples SRTT = %v, estimator failed to converge down", got)
	}
}

func TestEstimatorNegativeSampleIgnored(t *testing.T) {
	e := NewEstimator(50*time.Millisecond, time.Millisecond, time.Second)
	e.Observe(-time.Second)
	if s := e.Stats(); s.Samples != 0 || s.SRTT != 50*time.Millisecond {
		t.Errorf("negative sample was not ignored: %+v", s)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	mkSeq := func(seed int64) []time.Duration {
		b := NewBackoff(2*time.Millisecond, 100*time.Millisecond, seed)
		var out []time.Duration
		for a := 0; a < 8; a++ {
			out = append(out, b.Delay(a))
		}
		return out
	}
	s1, s2 := mkSeq(7), mkSeq(7)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("attempt %d: same seed yields %v then %v", i, s1[i], s2[i])
		}
	}
	diff := false
	for i, d := range mkSeq(8) {
		if d != s1[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical jitter streams")
	}
}

func TestBackoffDelayRangeAndCap(t *testing.T) {
	b := NewBackoff(4*time.Millisecond, 32*time.Millisecond, 1)
	for a := 0; a < 12; a++ {
		nominal := scale(4*time.Millisecond, a, 32*time.Millisecond)
		d := b.Delay(a)
		if d < nominal/2 || d >= nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", a, d, nominal/2, nominal)
		}
	}
	if got := scale(4*time.Millisecond, 30, 32*time.Millisecond); got != 32*time.Millisecond {
		t.Errorf("scale saturates at %v, want the 32ms cap", got)
	}
}

// TestMonitorEveryTransition walks the FSM through all its edges:
// healthy → degraded → suspect on consecutive timeouts, suspect → healthy
// on late evidence (the late-ACK recovery), degraded → healthy likewise,
// and excluded as a terminal state that neither timeouts nor evidence move.
func TestMonitorEveryTransition(t *testing.T) {
	m := NewMonitor(2, 4)
	if m.State() != Healthy {
		t.Fatalf("initial state %v, want healthy", m.State())
	}
	if st, changed := m.Timeout(); st != Healthy || changed {
		t.Fatalf("timeout 1: (%v, %v), want (healthy, false)", st, changed)
	}
	if st, changed := m.Timeout(); st != Degraded || !changed {
		t.Fatalf("timeout 2: (%v, %v), want (degraded, true)", st, changed)
	}
	if st, changed := m.Timeout(); st != Degraded || changed {
		t.Fatalf("timeout 3: (%v, %v), want (degraded, false)", st, changed)
	}
	if st, changed := m.Timeout(); st != Suspect || !changed {
		t.Fatalf("timeout 4: (%v, %v), want (suspect, true)", st, changed)
	}
	// Late ACK: suspect heals to healthy and the counter resets — the next
	// timeout starts a fresh streak.
	if st, changed := m.Evidence(); st != Healthy || !changed {
		t.Fatalf("evidence on suspect: (%v, %v), want (healthy, true)", st, changed)
	}
	if st, changed := m.Timeout(); st != Healthy || changed {
		t.Fatalf("timeout after recovery: (%v, %v), want (healthy, false) — streak must reset", st, changed)
	}
	// Degraded → healthy.
	m.Timeout()
	if m.State() != Degraded {
		t.Fatalf("state %v, want degraded", m.State())
	}
	if st, changed := m.Evidence(); st != Healthy || !changed {
		t.Fatalf("evidence on degraded: (%v, %v), want (healthy, true)", st, changed)
	}
	// Evidence on healthy is a no-op transition.
	if st, changed := m.Evidence(); st != Healthy || changed {
		t.Fatalf("evidence on healthy: (%v, %v), want (healthy, false)", st, changed)
	}
	// Excluded is terminal.
	m.Exclude()
	if st, changed := m.Timeout(); st != Excluded || changed {
		t.Fatalf("timeout on excluded: (%v, %v), want (excluded, false)", st, changed)
	}
	if st, changed := m.Evidence(); st != Excluded || changed {
		t.Fatalf("evidence on excluded: (%v, %v), want (excluded, false)", st, changed)
	}
	s := m.Stats()
	if s.Suspicions != 1 || s.Recoveries != 2 {
		t.Errorf("suspicions=%d recoveries=%d, want 1 and 2", s.Suspicions, s.Recoveries)
	}
}

func TestPeerOnAckKarnAndSpurious(t *testing.T) {
	c := NewCoordinator(Config{RTTInit: 40 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: time.Second}, 2, 0)
	p := c.Peer(1)
	if c.Peer(0) != nil {
		t.Fatal("self peer must be nil")
	}
	// Clean exchange: sampled, not spurious.
	if sampled, spurious := p.OnAck(10*time.Millisecond, 10*time.Millisecond, 0); !sampled || spurious {
		t.Fatalf("clean exchange: sampled=%v spurious=%v", sampled, spurious)
	}
	if got := p.Estimator().SRTT(); got != 10*time.Millisecond {
		t.Fatalf("SRTT = %v, want 10ms", got)
	}
	// Retransmitted, ACK well after the retransmission: Karn — no sample.
	if sampled, spurious := p.OnAck(30*time.Millisecond, 9*time.Millisecond, 1); sampled || spurious {
		t.Fatalf("ambiguous exchange: sampled=%v spurious=%v, want neither", sampled, spurious)
	}
	if got := p.Estimator().Stats().Samples; got != 1 {
		t.Fatalf("samples = %d, Karn's rule must have discarded the ambiguous one", got)
	}
	// Retransmitted, but the ACK landed < SRTT/2 after the retransmission:
	// it answers an earlier copy — spurious, and the full time is sampled.
	if sampled, spurious := p.OnAck(12*time.Millisecond, time.Millisecond, 1); !sampled || !spurious {
		t.Fatalf("spurious exchange: sampled=%v spurious=%v, want both", sampled, spurious)
	}
	s := p.Estimator().Stats()
	if s.Samples != 2 || s.Spurious != 1 {
		t.Fatalf("samples=%d spurious=%d, want 2 and 1", s.Samples, s.Spurious)
	}
}

func TestPeerRetryInGrowsAndCaps(t *testing.T) {
	c := NewCoordinator(Config{RTTInit: 10 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: 80 * time.Millisecond, Seed: 3}, 3, 1)
	p := c.Peer(2)
	rto := p.Estimator().RTO() // 10ms + 4·5ms = 30ms
	if rto != 30*time.Millisecond {
		t.Fatalf("initial RTO = %v, want 30ms", rto)
	}
	// The first wait is the RTO itself: a jittered one would retransmit
	// before the estimator's own timeout.
	if d0 := p.RetryIn(0); d0 != rto {
		t.Errorf("attempt 0 delay %v, want exactly the RTO %v", d0, rto)
	}
	d3 := p.RetryIn(3)
	if d3 < 40*time.Millisecond || d3 >= 80*time.Millisecond {
		t.Errorf("attempt 3 delay %v outside the capped [40ms, 80ms)", d3)
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.RTTInit != DefaultRTTInit || cfg.RTOMin != DefaultRTOMin || cfg.RTOMax != DefaultRTOMax {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if err := (Config{RTTInit: -time.Second}).Validate(); err == nil {
		t.Error("negative RTTInit validated")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	for st, s := range []string{"healthy", "degraded", "suspect", "excluded"} {
		if State(st).String() != s {
			t.Errorf("State(%d) = %q, want %q", st, State(st), s)
		}
	}
	if State(99).String() != "unknown" {
		t.Errorf("State(99) = %q, want unknown", State(99))
	}
}
