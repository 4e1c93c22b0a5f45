package sync

import (
	stdsync "sync"
	"testing"
	"time"
)

// peer builds the synchronizer record of node 0's link to node 1.
func peer(cfg Config) *Peer { return NewPeers(cfg, 2, 0)[1] }

func TestEstimatorFirstSampleReplacesGuess(t *testing.T) {
	p := peer(Config{RTTInit: 50 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: time.Second})
	if got := p.Stats().SRTT; got != 50*time.Millisecond {
		t.Fatalf("initial SRTT = %v, want the 50ms guess", got)
	}
	p.OnAck(8*time.Millisecond, 8*time.Millisecond, 0)
	s := p.Stats()
	if s.SRTT != 8*time.Millisecond || s.RTTVar != 4*time.Millisecond {
		t.Fatalf("after first sample: srtt=%v rttvar=%v, want 8ms/4ms", s.SRTT, s.RTTVar)
	}
	if s.Samples != 1 {
		t.Fatalf("samples = %d, want 1", s.Samples)
	}
}

func TestEstimatorJacobsonUpdate(t *testing.T) {
	p := peer(Config{RTOMin: time.Millisecond, RTOMax: time.Second})
	p.OnAck(80*time.Millisecond, 80*time.Millisecond, 0) // primes: srtt=80ms, rttvar=40ms
	p.OnAck(40*time.Millisecond, 40*time.Millisecond, 0)
	s := p.Stats()
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
	p := peer(Config{RTOMin: 10 * time.Millisecond, RTOMax: 100 * time.Millisecond})
	p.OnAck(time.Microsecond, time.Microsecond, 0)
	if got := p.RetryIn(0); got != 10*time.Millisecond {
		t.Errorf("tiny samples: RTO = %v, want the 10ms floor", got)
	}
	for i := 0; i < 20; i++ {
		p.OnAck(5*time.Second, 5*time.Second, 0)
	}
	if got := p.RetryIn(0); got != 100*time.Millisecond {
		t.Errorf("huge samples: RTO = %v, want the 100ms cap", got)
	}
}

func TestEstimatorConvergesDownAfterSpike(t *testing.T) {
	p := peer(Config{RTOMin: time.Millisecond, RTOMax: 10 * time.Second})
	p.OnAck(time.Second, time.Second, 0)
	for i := 0; i < 200; i++ {
		p.OnAck(2*time.Millisecond, 2*time.Millisecond, 0)
	}
	if got := p.Stats().SRTT; got > 5*time.Millisecond {
		t.Errorf("after 200 fast samples SRTT = %v, estimator failed to converge down", got)
	}
}

func TestEstimatorNegativeSampleIgnored(t *testing.T) {
	p := peer(Config{RTTInit: 50 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: time.Second})
	if sampled, _ := p.OnAck(-time.Second, -time.Second, 0); sampled {
		t.Error("negative sample reported as sampled")
	}
	if s := p.Stats(); s.Samples != 0 || s.SRTT != 50*time.Millisecond {
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

// TestPeerHealthWalk walks a link's health through every edge at the
// constant thresholds: healthy → degraded → suspect on consecutive
// timeouts, suspect → healthy on late evidence (the late-ACK recovery),
// degraded → healthy likewise, and evidence on a healthy link as a no-op.
func TestPeerHealthWalk(t *testing.T) {
	p := peer(Config{})
	if p.State() != Healthy {
		t.Fatalf("initial state %v, want healthy", p.State())
	}
	want := []struct {
		st      State
		changed bool
	}{
		{Healthy, false}, {Degraded, true}, {Degraded, false}, {Degraded, false}, {Suspect, true}, {Suspect, false},
	}
	for i, w := range want {
		if st, changed := p.OnTimeout(); st != w.st || changed != w.changed {
			t.Fatalf("timeout %d: (%v, %v), want (%v, %v)", i+1, st, changed, w.st, w.changed)
		}
	}
	// Late ACK: suspect heals to healthy and the count resets — the next
	// timeout starts a fresh streak.
	if !p.OnEvidence() || p.State() != Healthy {
		t.Fatalf("evidence on suspect: state %v, want a heal to healthy", p.State())
	}
	if st, changed := p.OnTimeout(); st != Healthy || changed {
		t.Fatalf("timeout after recovery: (%v, %v), want (healthy, false) — streak must reset", st, changed)
	}
	// Degraded → healthy.
	p.OnTimeout()
	if p.State() != Degraded {
		t.Fatalf("state %v, want degraded", p.State())
	}
	if !p.OnEvidence() || p.State() != Healthy {
		t.Fatalf("evidence on degraded: state %v, want a heal to healthy", p.State())
	}
	// Evidence on healthy changes nothing, one timeout in or none.
	p.OnTimeout()
	if p.OnEvidence() || p.OnEvidence() || p.State() != Healthy {
		t.Fatalf("evidence on healthy reported a change (state %v)", p.State())
	}
	if got := p.Stats().Suspicions; got != 1 {
		t.Errorf("suspicions = %d, want 1", got)
	}
}

func TestPeerOnAckKarnAndSpurious(t *testing.T) {
	peers := NewPeers(Config{RTTInit: 40 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: time.Second}, 2, 0)
	if peers[0] != nil {
		t.Fatal("self peer must be nil")
	}
	p := peers[1]
	// Clean exchange: sampled, not spurious.
	if sampled, spurious := p.OnAck(10*time.Millisecond, 10*time.Millisecond, 0); !sampled || spurious {
		t.Fatalf("clean exchange: sampled=%v spurious=%v", sampled, spurious)
	}
	if got := p.Stats().SRTT; got != 10*time.Millisecond {
		t.Fatalf("SRTT = %v, want 10ms", got)
	}
	// Retransmitted, ACK well after the retransmission: Karn — no sample.
	if sampled, spurious := p.OnAck(30*time.Millisecond, 9*time.Millisecond, 1); sampled || spurious {
		t.Fatalf("ambiguous exchange: sampled=%v spurious=%v, want neither", sampled, spurious)
	}
	if got := p.Stats().Samples; got != 1 {
		t.Fatalf("samples = %d, Karn's rule must have discarded the ambiguous one", got)
	}
	// Retransmitted, but the ACK landed < SRTT/2 after the retransmission:
	// it answers an earlier copy — spurious, and the full time is sampled.
	if sampled, spurious := p.OnAck(12*time.Millisecond, time.Millisecond, 1); !sampled || !spurious {
		t.Fatalf("spurious exchange: sampled=%v spurious=%v, want both", sampled, spurious)
	}
	s := p.Stats()
	if s.Samples != 2 || s.Spurious != 1 {
		t.Fatalf("samples=%d spurious=%d, want 2 and 1", s.Samples, s.Spurious)
	}
}

func TestPeerRetryInGrowsAndCaps(t *testing.T) {
	p := NewPeers(Config{RTTInit: 10 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: 80 * time.Millisecond, Seed: 3}, 3, 1)[2]
	rto := p.Stats().RTO // 10ms + 4·5ms = 30ms
	if rto != 30*time.Millisecond {
		t.Fatalf("initial RTO = %v, want 30ms", rto)
	}
	// The first wait is the RTO itself: a jittered one would retransmit
	// before the estimate's own timeout.
	if d0 := p.RetryIn(0); d0 != rto {
		t.Errorf("attempt 0 delay %v, want exactly the RTO %v", d0, rto)
	}
	d3 := p.RetryIn(3)
	if d3 < 40*time.Millisecond || d3 >= 80*time.Millisecond {
		t.Errorf("attempt 3 delay %v outside the capped [40ms, 80ms)", d3)
	}
}

// TestPeerConcurrentUse drives one Peer from concurrent goroutines through
// every method, as parked senders, the read loop and the stats surfaces
// do; run it under -race.
func TestPeerConcurrentUse(t *testing.T) {
	p := peer(Config{RTTInit: time.Millisecond, RTOMin: time.Millisecond, RTOMax: 10 * time.Millisecond, Seed: 5})
	const workers, rounds = 8, 500
	var wg stdsync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d := p.RetryIn(i % 4)
				if d <= 0 || d > 10*time.Millisecond {
					t.Errorf("RetryIn(%d) = %v outside (0, 10ms]", i%4, d)
					return
				}
				switch (w + i) % 3 {
				case 0:
					p.OnTimeout()
				case 1:
					p.OnEvidence()
				default:
					p.OnAck(time.Duration(i%7+1)*time.Millisecond, time.Millisecond, i%2)
				}
				if s := p.Stats(); s.RTO < time.Millisecond || s.RTO > 10*time.Millisecond {
					t.Errorf("RTO %v outside the [1ms, 10ms] clamp", s.RTO)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p.OnEvidence()
	if p.State() != Healthy {
		t.Errorf("state %v after final evidence, want healthy", p.State())
	}
	if s := p.Stats(); s.Samples == 0 || s.Samples > workers*rounds {
		t.Errorf("samples = %d, want in (0, %d]", s.Samples, workers*rounds)
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
