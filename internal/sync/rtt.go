package sync

import "time"

// Jacobson/Karn smoothing parameters, as shift counts: srtt gains 1/8 of
// each error, rttvar 1/4 of each deviation, and the RTO is srtt + 4·rttvar.
const (
	srttShift   = 3 // alpha = 1/8
	rttvarShift = 2 // beta = 1/4
	rttvarMult  = 4
)

// observe feeds one RTT sample into the estimate. The first sample replaces
// the initial guess outright (srtt = sample, rttvar = sample/2); later
// samples apply the Jacobson update. Caller holds p.mu.
func (p *Peer) observe(sample time.Duration) {
	p.samples++
	if !p.primed {
		p.primed = true
		p.srtt = sample
		p.rttvar = sample / 2
		return
	}
	err := sample - p.srtt
	if err < 0 {
		err = -err
	}
	p.rttvar += (err - p.rttvar) >> rttvarShift
	p.srtt += (sample - p.srtt) >> srttShift
}

// rto returns the retransmission timeout: srtt + 4·rttvar, clamped to the
// backoff's [min, max]. Caller holds p.mu.
func (p *Peer) rto() time.Duration {
	return min(max(p.srtt+rttvarMult*p.rttvar, p.bo.min), p.bo.max)
}
