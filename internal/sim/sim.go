// Package sim schedules a synchronous computation in (virtual) time: every
// rendezvous occupies both participants for its duration, and an operation
// starts as soon as all of its participants are free. The resulting makespan
// equals the longest weighted chain through the computation's ▷ structure —
// the timed counterpart of the causal critical path obs.CriticalPath walks
// over the same trace in stamp-sum ticks. The paper itself is untimed; this
// package is the profiling application its introduction motivates.
package sim

import (
	"fmt"

	"syncstamp/internal/trace"
)

// Durations assigns virtual-time costs to operations.
type Durations struct {
	// Message returns the rendezvous duration of a message (both
	// participants are busy for it).
	Message func(m trace.Msg) int
	// Internal returns the duration of an internal event on proc.
	Internal func(proc int) int
}

// Uniform charges every message d ticks and every internal event dInt.
func Uniform(d, dInt int) Durations {
	return Durations{
		Message:  func(trace.Msg) int { return d },
		Internal: func(int) int { return dInt },
	}
}

// Result is an ASAP (as-soon-as-possible) schedule of a computation.
type Result struct {
	// Start and Finish are indexed by op position in the trace.
	Start, Finish []int
	// Makespan is the completion time of the whole computation.
	Makespan int
	// Busy is the total working time per process.
	Busy []int
	// SerialTime is the sum of all durations (the 1-processor baseline,
	// counting a rendezvous once).
	SerialTime int
}

// Parallelism returns the achieved speedup SerialTime/Makespan.
func (r *Result) Parallelism() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.SerialTime) / float64(r.Makespan)
}

// Schedule computes the ASAP schedule. Because a trace is a linear
// extension of each process's operation order, a single pass assigns each
// op the earliest start compatible with its participants' availability;
// this is optimal for rendezvous scheduling without artificial delays (no
// op could start earlier without violating a per-process order).
func Schedule(tr *trace.Trace, dur Durations) (*Result, error) {
	if dur.Message == nil || dur.Internal == nil {
		return nil, fmt.Errorf("sim: both duration functions are required")
	}
	res := &Result{
		Start:  make([]int, len(tr.Ops)),
		Finish: make([]int, len(tr.Ops)),
		Busy:   make([]int, tr.N),
	}
	free := make([]int, tr.N)
	msgIdx := 0
	for i, op := range tr.Ops {
		switch op.Kind {
		case trace.OpMessage:
			m := trace.Msg{Index: msgIdx, From: op.From, To: op.To}
			msgIdx++
			d := dur.Message(m)
			if d < 0 {
				return nil, fmt.Errorf("sim: negative duration for message %d", m.Index)
			}
			start := free[op.From]
			if free[op.To] > start {
				start = free[op.To]
			}
			res.Start[i] = start
			res.Finish[i] = start + d
			free[op.From] = start + d
			free[op.To] = start + d
			res.Busy[op.From] += d
			res.Busy[op.To] += d
			res.SerialTime += d
		case trace.OpInternal:
			d := dur.Internal(op.Proc)
			if d < 0 {
				return nil, fmt.Errorf("sim: negative duration for internal op %d", i)
			}
			res.Start[i] = free[op.Proc]
			res.Finish[i] = free[op.Proc] + d
			free[op.Proc] += d
			res.Busy[op.Proc] += d
			res.SerialTime += d
		default:
			return nil, fmt.Errorf("sim: op %d has invalid kind %d", i, int(op.Kind))
		}
		if res.Finish[i] > res.Makespan {
			res.Makespan = res.Finish[i]
		}
	}
	return res, nil
}
