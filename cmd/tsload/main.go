// Command tsload is the open-loop load driver: it simulates a client
// population timestamping rendezvous against a server pool (or a random
// G(n,p) topology), streams every logged record through the sharded
// collector tree, and reports offered-vs-achieved rate, latency
// percentiles, spill accounting, and the tree's verification verdict.
//
// Usage:
//
//	tsload -servers 16 -clients 100000 -msgs 1 -zipf 0.9 \
//	       -leaves 4 -spill-dir /tmp/spill
//	tsload -mode gnp -gnp-n 64 -gnp-p 0.1 -gnp-msgs 50000 -leaves 2
//
// The workload is fixed before the run by -seed (open loop): a Poisson or
// uniform arrival schedule per client, server popularity skewed by -zipf.
// -rate paces arrivals to an aggregate offered rate; latency is then
// measured from each request's scheduled due time, so queueing under
// saturation shows up in the percentiles. Unpaced runs (-rate 0) measure
// raw throughput.
//
// -control reruns the workload at the same seed with logs retained, then
// replays the whole trace through the sequential oracle and compares: the
// streaming verdict and the replay must agree, or tsload exits nonzero.
//
// -slo gates the run on a latency percentile ("p99<10ms"): a violated
// budget exits nonzero, making tsload usable as a CI regression tripwire.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/load"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode    = fs.String("mode", "clientserver", "workload: clientserver or gnp")
		servers = fs.Int("servers", 8, "server pool size (clientserver mode)")
		clients = fs.Int("clients", 1000, "client population (clientserver mode)")
		msgs    = fs.Int("msgs", 10, "messages per client (clientserver mode)")
		rate    = fs.Float64("rate", 0, "aggregate offered rate in msgs/sec; 0 = unpaced")
		arrival = fs.String("arrival", "poisson", "inter-arrival distribution: poisson or uniform")
		zipf    = fs.Float64("zipf", 0, "server popularity skew exponent (0 = uniform)")
		seed    = fs.Int64("seed", 1, "workload seed")
		workers = fs.Int("workers", 4, "driver goroutines (1 = deterministic)")

		leaves   = fs.Int("leaves", 1, "collector tree width")
		spillDir = fs.String("spill-dir", "", "spill verified segments to this directory")
		segment  = fs.Int("segment", 4096, "spill segment size in records")

		gnpN    = fs.Int("gnp-n", 32, "process count (gnp mode)")
		gnpP    = fs.Float64("gnp-p", 0.2, "edge probability (gnp mode)")
		gnpMsgs = fs.Int("gnp-msgs", 10000, "message count (gnp mode)")

		control = fs.Bool("control", false, "cross-check the verdict against a whole-trace sequential replay")
		slo     = fs.String("slo", "", `latency SLO gate, e.g. "p99<10ms" or "p50<500us"; violation exits nonzero`)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sloQ, sloBound, err := parseSLO(*slo)
	if err != nil {
		fmt.Fprintf(stderr, "tsload: %v\n", err)
		return 2
	}
	tc := node.TreeConfig{Leaves: *leaves, SpillDir: *spillDir, SegmentRecords: *segment}
	reg := obs.NewRegistry()

	var res *load.Result
	switch *mode {
	case "clientserver":
		cfg := load.Config{
			Servers:           *servers,
			Clients:           *clients,
			MessagesPerClient: *msgs,
			RatePerSec:        *rate,
			Arrival:           load.Arrival(*arrival),
			ZipfTheta:         *zipf,
			Seed:              *seed,
			Workers:           *workers,
			Tree:              tc,
			Registry:          reg,
		}
		cfg.Tree.KeepLogs = *control
		res, err = load.Run(cfg)
	case "gnp":
		cfg := load.GnpConfig{
			N: *gnpN, P: *gnpP, Messages: *gnpMsgs, Seed: *seed,
			Tree: tc, Registry: reg,
		}
		cfg.Tree.KeepLogs = *control
		res, err = load.RunGnp(cfg)
	default:
		fmt.Fprintf(stderr, "tsload: unknown mode %q\n", *mode)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "tsload: %v\n", err)
		return 1
	}

	report(stdout, res)
	if *control {
		if err := controlReplay(res); err != nil {
			fmt.Fprintf(stderr, "tsload: control replay: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "control: streaming verdict agrees with the whole-trace sequential replay")
	}
	if !res.Verdict.OK {
		fmt.Fprintln(stderr, "tsload: verification FAILED")
		return 1
	}
	if sloQ != 0 {
		got := res.Latency.Quantile(sloQ)
		if got > int64(sloBound) {
			fmt.Fprintf(stderr, "tsload: SLO violated: p%g <= %v, budget %v\n",
				sloQ*100, time.Duration(got), sloBound)
			return 1
		}
		fmt.Fprintf(stdout, "slo       p%g <= %v within %v\n", sloQ*100, time.Duration(got), sloBound)
	}
	return 0
}

// parseSLO parses a "-slo p99<10ms" gate into a quantile and a duration
// budget; an empty spec means no gate (quantile 0).
func parseSLO(spec string) (q float64, bound time.Duration, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	name, budget, found := strings.Cut(spec, "<")
	if !found || !strings.HasPrefix(name, "p") {
		return 0, 0, fmt.Errorf(`bad -slo %q (want "pNN<duration", e.g. "p99<10ms")`, spec)
	}
	pct, perr := strconv.ParseFloat(name[1:], 64)
	if perr != nil || pct <= 0 || pct > 100 {
		return 0, 0, fmt.Errorf("bad -slo quantile %q (want p50, p90, p99, ...)", name)
	}
	bound, err = time.ParseDuration(strings.TrimSpace(budget))
	if err != nil || bound <= 0 {
		return 0, 0, fmt.Errorf("bad -slo budget %q (want a positive duration like 10ms)", budget)
	}
	return pct / 100, bound, nil
}

// report prints the run's outcome: rates, percentiles, tree accounting.
func report(w io.Writer, res *load.Result) {
	fmt.Fprintf(w, "messages  %d in %v (%.0f msgs/sec achieved", res.Messages, res.Elapsed.Round(time.Millisecond), res.AchievedPerSec)
	if res.OfferedPerSec > 0 {
		fmt.Fprintf(w, ", %.0f offered", res.OfferedPerSec)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "latency   p50 <= %v  p99 <= %v\n",
		time.Duration(res.P50()), time.Duration(res.P99()))
	v := res.Verdict
	fmt.Fprintf(w, "collector %d shards, %d segments spilled (%d bytes), max %d records resident\n",
		v.Shards, v.SegmentsSpilled, v.SpillBytes, v.MaxResident)
	fmt.Fprintln(w, v.String())
}

// controlReplay reconstructs the retained logs and replays the whole trace
// sequentially: stamps must match and the exact-order oracle must hold —
// the classical verdict the streaming tree claims to reproduce.
func controlReplay(res *load.Result) error {
	if res.Logs == nil || res.Dec == nil {
		return fmt.Errorf("no logs retained")
	}
	dec := res.Dec
	r, err := core.Reconstruct(dec, res.Logs)
	if err != nil {
		return err
	}
	if int64(r.Trace.NumMessages()) != res.Messages {
		return fmt.Errorf("replay reconstructed %d messages, run drove %d", r.Trace.NumMessages(), res.Messages)
	}
	return check.Verify(r, dec)
}
