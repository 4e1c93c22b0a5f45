package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestParseProgram(t *testing.T) {
	scripts, err := parseProgram("0: send 1, internal hello world; 2: recvfrom 0, recv", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) != 2 {
		t.Fatalf("parsed %d processes, want 2", len(scripts))
	}
	want0 := []progOp{{kind: "send", arg: 1}, {kind: "internal", note: "hello world"}}
	if len(scripts[0]) != len(want0) {
		t.Fatalf("process 0: %d ops, want %d", len(scripts[0]), len(want0))
	}
	for i, op := range scripts[0] {
		if op != want0[i] {
			t.Fatalf("process 0 op %d: %+v, want %+v", i, op, want0[i])
		}
	}
	if scripts[2][0] != (progOp{kind: "recvfrom", arg: 0}) || scripts[2][1] != (progOp{kind: "recv"}) {
		t.Fatalf("process 2 ops wrong: %+v", scripts[2])
	}
}

func TestParseProgramRejects(t *testing.T) {
	cases := []string{
		"",                   // empty
		"0 send 1",           // no colon
		"0: send",            // missing peer
		"0: send 9",          // peer out of range
		"0: fly 1",           // unknown op
		"0: send 1; 0: recv", // duplicate process
		"7: recv",            // process out of range
		"0: internal",        // note missing
		"0:",                 // empty script
	}
	for _, c := range cases {
		if _, err := parseProgram(c, 3); err == nil {
			t.Errorf("program %q accepted", c)
		}
	}
}

func TestParsePlacement(t *testing.T) {
	got, err := parsePlacement("0, 1, 0", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "0,1", "0,1,9", "0,x,0", "0,0,0"} {
		if _, err := parsePlacement(bad, 3, 2); err == nil {
			t.Errorf("placement %q accepted (3 procs, 2 nodes)", bad)
		}
	}
}

// freeAddrs reserves n distinct localhost ports and releases them for the
// nodes to bind. The tiny reuse race is acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// inProcessCluster is three tsnode runs inside one test process, on a
// triangle with one process per node; node 0 collects and verifies.
type inProcessCluster struct {
	outs, errs [3]bytes.Buffer
	codes      [3]int
	done       [3]chan struct{} // closed when node i's run returns
	common     []string
}

func newInProcessCluster(t *testing.T) *inProcessCluster {
	return &inProcessCluster{common: []string{
		"-addrs", strings.Join(freeAddrs(t, 3), ","),
		"-topology", "triangle",
		"-placement", "0,1,2",
		"-program", "0: recvfrom 2, send 1; 1: recvfrom 0, recvfrom 2; 2: send 0, send 1, internal done",
	}}
}

// start launches node i's run with extra flags appended.
func (c *inProcessCluster) start(i int, extra ...string) {
	args := append([]string{"-node", fmt.Sprint(i)}, c.common...)
	if i == 0 {
		args = append(args, "-collect", "-verify")
	}
	args = append(args, extra...)
	c.done[i] = make(chan struct{})
	go func() {
		defer close(c.done[i])
		c.codes[i] = run(args, &c.outs[i], &c.errs[i])
	}()
}

// check waits for every node and checks the collector verified the run.
func (c *inProcessCluster) check(t *testing.T) {
	t.Helper()
	for i := range c.codes {
		<-c.done[i]
		if c.codes[i] != 0 {
			t.Fatalf("node %d exited %d: %s", i, c.codes[i], c.errs[i].String())
		}
	}
	got := c.outs[0].String()
	if !strings.Contains(got, "reconstructed computation: 3 messages, 1 internal events") {
		t.Fatalf("collector output missing reconstruction summary:\n%s", got)
	}
	if !strings.Contains(got, "verified: distributed stamps match the sequential replay") {
		t.Fatalf("collector output missing verification line:\n%s", got)
	}
}

// TestRunInProcessCluster drives the full tsnode flow — flags, TCP mesh,
// report, collect, verify — with three nodes inside one test process.
func TestRunInProcessCluster(t *testing.T) {
	c := newInProcessCluster(t)
	for i := 0; i < 3; i++ {
		c.start(i)
	}
	c.check(t)
}

// TestRunInProcessClusterServesFlight polls node 0's /debug/flight for the
// whole run. The endpoint reads the recorder node.New installs, so under
// the race detector this catches an endpoint served before node.New
// finished. The peers start only once the endpoint has answered, so that
// answer comes while node 0 is still alone, in its handshake.
func TestRunInProcessClusterServesFlight(t *testing.T) {
	c := newInProcessCluster(t)
	url := "http://" + freeAddrs(t, 1)[0]
	c.start(0, "-obs-addr", strings.TrimPrefix(url, "http://"))
	served := 0
	get := func() {
		resp, err := http.Get(url + "/debug/flight")
		if err != nil {
			return // not listening yet, or already closed
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			served++
		}
	}
	for deadline := time.Now().Add(10 * time.Second); served == 0; time.Sleep(time.Millisecond) {
		select {
		case <-c.done[0]:
			t.Fatalf("node 0 exited %d before serving /debug/flight: %s", c.codes[0], c.errs[0].String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("node 0 never served /debug/flight")
		}
		get()
	}
	c.start(1)
	c.start(2)
	for {
		select {
		case <-c.done[0]:
			c.check(t)
			return
		default:
			get()
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	cases := [][]string{
		{},
		{"-node", "0", "-addrs", "a,b", "-topology", "nope:3", "-placement", "0,1", "-program", "0: recv"},
		{"-node", "5", "-addrs", "a,b", "-topology", "path:2", "-placement", "0,1", "-program", "0: recv"},
		{"-node", "0", "-addrs", "a,b", "-topology", "path:2", "-placement", "0,1", "-program", "0: hop"},
		{"-node", "0", "-addrs", "a,b", "-topology", "path:2", "-extra-edges", "0-9", "-placement", "0,1", "-program", "0: recv"},
	}
	for i, args := range cases {
		if code := run(args, &out, &errBuf); code == 0 {
			t.Errorf("case %d: bad flags %v accepted", i, args)
		}
	}
}
