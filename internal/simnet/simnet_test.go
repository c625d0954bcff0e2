package simnet

import (
	"testing"
	"time"
)

func TestDeliveryAndOrdering(t *testing.T) {
	nw := New(1)
	a := nw.AddNode()
	b := nw.AddNode()
	var got []string
	b.Handle("msg", func(m Message) { got = append(got, m.Payload.(string)) })
	a.Send(b.ID(), "msg", "first", 100)
	a.Send(b.ID(), "msg", "second", 100)
	nw.RunAll()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v, want [first second]", got)
	}
	tr := nw.Trace()
	if tr.Sent != 2 || tr.Delivered != 2 || tr.Dropped != 0 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (time.Duration, int64) {
		nw := New(42)
		nw.SetDefaultProfile(HomeBroadbandProfile())
		nodes := make([]*Node, 10)
		for i := range nodes {
			nodes[i] = nw.AddNode()
			nodes[i].HandleDefault(func(m Message) {})
		}
		for i := 0; i < 200; i++ {
			from := nodes[i%10]
			to := nodes[(i*7+3)%10]
			if from.ID() != to.ID() {
				from.Send(to.ID(), "x", i, 1000+i)
			}
		}
		end := nw.Run(time.Hour)
		return end, nw.Trace().Delivered
	}
	e1, d1 := run()
	e2, d2 := run()
	if e1 != e2 || d1 != d2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", e1, d1, e2, d2)
	}
}

func TestLatencyModel(t *testing.T) {
	nw := New(1)
	p := LinkProfile{Latency: 10 * time.Millisecond} // no jitter, infinite bw
	a := nw.AddNodeWithProfile(p)
	b := nw.AddNodeWithProfile(p)
	var at time.Duration
	b.Handle("x", func(m Message) { at = nw.Now() })
	a.Send(b.ID(), "x", nil, 100)
	nw.RunAll()
	if at != 20*time.Millisecond { // sum of both endpoint latencies
		t.Errorf("delivered at %v, want 20ms", at)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	nw := New(1)
	// 1 Mbps uplink, no latency: a 1,000,000-byte message takes 8 s to serialize.
	src := nw.AddNodeWithProfile(LinkProfile{UplinkBps: 1e6})
	dst := nw.AddNodeWithProfile(LinkProfile{})
	var at time.Duration
	dst.Handle("x", func(m Message) { at = nw.Now() })
	src.Send(dst.ID(), "x", nil, 1_000_000)
	nw.RunAll()
	if at != 8*time.Second {
		t.Errorf("delivered at %v, want 8s", at)
	}
}

func TestUplinkQueueing(t *testing.T) {
	nw := New(1)
	src := nw.AddNodeWithProfile(LinkProfile{UplinkBps: 8e6}) // 1 MB/s
	dst := nw.AddNodeWithProfile(LinkProfile{})
	var times []time.Duration
	dst.Handle("x", func(m Message) { times = append(times, nw.Now()) })
	// Two back-to-back 1 MB messages: second must queue behind the first.
	src.Send(dst.ID(), "x", nil, 1_000_000)
	src.Send(dst.ID(), "x", nil, 1_000_000)
	nw.RunAll()
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	if times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("deliveries at %v, want [1s 2s]", times)
	}
}

func TestCrashDropsInFlight(t *testing.T) {
	nw := New(1)
	p := LinkProfile{Latency: 10 * time.Millisecond}
	a := nw.AddNodeWithProfile(p)
	b := nw.AddNodeWithProfile(p)
	delivered := false
	b.Handle("x", func(m Message) { delivered = true })
	a.Send(b.ID(), "x", nil, 10)
	nw.After(5*time.Millisecond, func() { b.Crash() })
	nw.RunAll()
	if delivered {
		t.Error("message delivered to node that crashed while it was in flight")
	}
	if nw.Trace().Dropped != 1 {
		t.Errorf("dropped = %d, want 1", nw.Trace().Dropped)
	}
}

func TestSendFromDownNodeFails(t *testing.T) {
	nw := New(1)
	a := nw.AddNode()
	b := nw.AddNode()
	a.Crash()
	if a.Send(b.ID(), "x", nil, 10) {
		t.Error("send from crashed node should fail")
	}
}

func TestRestartObserversAndAvailability(t *testing.T) {
	nw := New(1)
	n := nw.AddNode()
	ups, downs := 0, 0
	n.OnUp(func() { ups++ })
	n.OnDown(func() { downs++ })
	nw.After(time.Second, func() { n.Crash() })
	nw.After(3*time.Second, func() { n.Restart() })
	nw.Schedule(4*time.Second, func() {})
	nw.RunAll()
	if ups != 1 || downs != 1 {
		t.Errorf("ups/downs = %d/%d, want 1/1", ups, downs)
	}
	if n.Crashes() != 1 {
		t.Errorf("crashes = %d", n.Crashes())
	}
	if n.Downtime() != 2*time.Second {
		t.Errorf("downtime = %v, want 2s", n.Downtime())
	}
	if av := n.Availability(); av != 0.5 {
		t.Errorf("availability = %v, want 0.5", av)
	}
}

func TestDoubleCrashAndRestartIdempotent(t *testing.T) {
	nw := New(1)
	n := nw.AddNode()
	n.Crash()
	n.Crash()
	if n.Crashes() != 1 {
		t.Errorf("double crash counted twice")
	}
	n.Restart()
	n.Restart()
	if !n.Up() {
		t.Error("node should be up")
	}
}

func TestPartitionBlocksTrafficAndHeals(t *testing.T) {
	nw := New(1)
	a, b, c := nw.AddNode(), nw.AddNode(), nw.AddNode()
	var got []NodeID
	h := func(m Message) { got = append(got, m.To) }
	a.HandleDefault(h)
	b.HandleDefault(h)
	c.HandleDefault(h)
	nw.Partition([]NodeID{a.ID(), b.ID()}, []NodeID{c.ID()})
	a.Send(b.ID(), "x", nil, 1) // same side: ok
	a.Send(c.ID(), "x", nil, 1) // cross-partition: dropped
	nw.RunAll()
	if len(got) != 1 || got[0] != b.ID() {
		t.Fatalf("partition leak: deliveries %v", got)
	}
	nw.Heal()
	a.Send(c.ID(), "x", nil, 1)
	nw.RunAll()
	if len(got) != 2 {
		t.Error("message not delivered after heal")
	}
}

func TestLossRate(t *testing.T) {
	nw := New(7)
	src := nw.AddNodeWithProfile(LinkProfile{Loss: 0.25})
	dst := nw.AddNodeWithProfile(LinkProfile{})
	dst.HandleDefault(func(m Message) {})
	const n = 10000
	for i := 0; i < n; i++ {
		src.Send(dst.ID(), "x", nil, 1)
	}
	nw.RunAll()
	rate := nw.Trace().DeliveryRate()
	if rate < 0.72 || rate > 0.78 {
		t.Errorf("delivery rate = %v, want ~0.75", rate)
	}
}

func TestChurnProcess(t *testing.T) {
	nw := New(3)
	n := nw.AddNode()
	Churn{MTTF: 10 * time.Second, MTTR: 10 * time.Second}.Apply(n)
	nw.Run(1000 * time.Second)
	if n.Crashes() == 0 {
		t.Fatal("churn never crashed the node")
	}
	// With MTTF == MTTR the long-run availability should hover near 0.5.
	if av := n.Availability(); av < 0.3 || av > 0.7 {
		t.Errorf("availability = %v, want ≈0.5", av)
	}
}

func TestChurnDisabled(t *testing.T) {
	nw := New(3)
	n := nw.AddNode()
	Churn{}.Apply(n)
	nw.Run(100 * time.Second)
	if n.Crashes() != 0 {
		t.Error("zero-MTTF churn should be inert")
	}
}

func TestScheduleInPastRunsNow(t *testing.T) {
	nw := New(1)
	order := []int{}
	nw.After(time.Second, func() {
		nw.Schedule(0, func() { order = append(order, 2) }) // in the past
		order = append(order, 1)
	})
	nw.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v", order)
	}
	if nw.Now() != time.Second {
		t.Errorf("now = %v", nw.Now())
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	nw := New(1)
	fired := false
	nw.After(10*time.Second, func() { fired = true })
	end := nw.Run(time.Second)
	if fired {
		t.Error("event past deadline ran")
	}
	if end != time.Second {
		t.Errorf("end = %v, want 1s", end)
	}
	nw.Run(time.Minute)
	if !fired {
		t.Error("event did not run after extending deadline")
	}
}

func TestUnhandledCounted(t *testing.T) {
	nw := New(1)
	a, b := nw.AddNode(), nw.AddNode()
	a.Send(b.ID(), "nobody-listens", nil, 1)
	nw.RunAll()
	if nw.Trace().Unhandled != 1 {
		t.Errorf("unhandled = %d, want 1", nw.Trace().Unhandled)
	}
}

func TestRPCCallResponse(t *testing.T) {
	nw := New(1)
	client := NewRPCNode(nw.AddNode())
	server := NewRPCNode(nw.AddNode())
	server.Serve("echo", func(from NodeID, req any) (any, int) {
		return "echo:" + req.(string), 32
	})
	var resp any
	var callErr error
	client.Call(server.Node().ID(), "echo", "hi", 16, time.Minute, func(r any, err error) {
		resp, callErr = r, err
	})
	nw.RunAll()
	if callErr != nil {
		t.Fatal(callErr)
	}
	if resp != "echo:hi" {
		t.Errorf("resp = %v", resp)
	}
}

func TestRPCTimeout(t *testing.T) {
	nw := New(1)
	client := NewRPCNode(nw.AddNode())
	server := NewRPCNode(nw.AddNode())
	server.Node().Crash()
	var callErr error
	client.Call(server.Node().ID(), "echo", "hi", 16, time.Second, func(r any, err error) { callErr = err })
	nw.RunAll()
	if callErr == nil {
		t.Error("want timeout error calling crashed node")
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	nw := New(1)
	client := NewRPCNode(nw.AddNode())
	server := NewRPCNode(nw.AddNode())
	_ = server
	var callErr error
	client.Call(server.Node().ID(), "nope", nil, 1, time.Minute, func(r any, err error) { callErr = err })
	nw.RunAll()
	if callErr == nil {
		t.Error("want error for unserved method")
	}
}

func TestRPCCallerCrashFailsPending(t *testing.T) {
	nw := New(1)
	client := NewRPCNode(nw.AddNode())
	server := NewRPCNode(nw.AddNode())
	server.Serve("slow", func(from NodeID, req any) (any, int) { return nil, 1 })
	var callErr error
	calls := 0
	client.Call(server.Node().ID(), "slow", nil, 1, time.Hour, func(r any, err error) {
		calls++
		callErr = err
	})
	client.Node().Crash()
	nw.RunAll()
	if calls != 1 {
		t.Fatalf("done invoked %d times, want exactly 1", calls)
	}
	if callErr == nil {
		t.Error("want error after caller crash")
	}
}

func TestNodeLookup(t *testing.T) {
	nw := New(1)
	n := nw.AddNode()
	if nw.Node(n.ID()) != n {
		t.Error("lookup failed")
	}
	if nw.Node(99) != nil || nw.Node(-1) != nil {
		t.Error("out-of-range lookup should return nil")
	}
	if nw.NumNodes() != 1 || len(nw.Nodes()) != 1 {
		t.Error("node count wrong")
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	nw := New(1)
	src := nw.AddNode()
	dst := nw.AddNode()
	dst.HandleDefault(func(m Message) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Send(dst.ID(), "x", nil, 100)
		if i%1024 == 0 {
			nw.RunAll()
		}
	}
	nw.RunAll()
}

func TestRPCAsyncHandler(t *testing.T) {
	nw := New(20)
	client := NewRPCNode(nw.AddNode())
	front := NewRPCNode(nw.AddNode())
	backend := NewRPCNode(nw.AddNode())
	backend.Serve("backend.work", func(from NodeID, req any) (any, int) {
		return req.(int) * 2, 8
	})
	// The front node proxies to the backend before replying — a nested RPC
	// inside an async handler.
	front.ServeAsync("front.work", func(from NodeID, req any, reply func(any, int)) {
		front.Call(backend.Node().ID(), "backend.work", req, 8, time.Minute, func(resp any, err error) {
			if err != nil {
				reply(-1, 8)
				return
			}
			reply(resp.(int)+1, 8)
		})
	})
	var got any
	client.Call(front.Node().ID(), "front.work", 20, 8, time.Minute, func(resp any, err error) {
		if err != nil {
			t.Errorf("call failed: %v", err)
		}
		got = resp
	})
	nw.RunAll()
	if got != 41 {
		t.Errorf("got %v, want 41", got)
	}
}

func TestRPCAsyncDoubleReplyPanics(t *testing.T) {
	nw := New(21)
	client := NewRPCNode(nw.AddNode())
	server := NewRPCNode(nw.AddNode())
	server.ServeAsync("bad", func(from NodeID, req any, reply func(any, int)) {
		reply(1, 8)
		defer func() {
			if recover() == nil {
				t.Error("second reply should panic")
			}
		}()
		reply(2, 8)
	})
	client.Call(server.Node().ID(), "bad", nil, 8, time.Minute, func(any, error) {})
	nw.RunAll()
}

// TestRPCDispatchPrecedence pins the handler order onMessage applies when
// one method has several registrations: async, then deferred, then sync.
func TestRPCDispatchPrecedence(t *testing.T) {
	cases := []struct {
		name                  string
		async, deferred, sync bool
		want                  string
	}{
		{"sync", false, false, true, "sync"},
		{"deferred", false, true, false, "deferred"},
		{"async", true, false, false, "async"},
		{"deferred>sync", false, true, true, "deferred"},
		{"async>sync", true, false, true, "async"},
		{"async>deferred", true, true, false, "async"},
		{"async>deferred>sync", true, true, true, "async"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := New(23)
			client := NewRPCNode(nw.AddNode())
			server := NewRPCNode(nw.AddNode())
			if tc.sync {
				server.Serve("m", func(NodeID, any) (any, int) { return "sync", 8 })
			}
			if tc.deferred {
				server.ServeDeferred("m", func(_ NodeID, _ any, tok ReplyToken) { tok.Reply("deferred", 8) })
			}
			if tc.async {
				server.ServeAsync("m", func(_ NodeID, _ any, reply func(any, int)) { reply("async", 8) })
			}
			var got any
			client.Call(server.Node().ID(), "m", nil, 8, time.Minute, func(resp any, err error) {
				if err != nil {
					t.Errorf("call failed: %v", err)
				}
				got = resp
			})
			nw.RunAll()
			if got != tc.want {
				t.Errorf("answered by %v, want %s", got, tc.want)
			}
		})
	}
}

func TestSharedRPCNodePerNode(t *testing.T) {
	nw := New(22)
	n := nw.AddNode()
	a := NewRPCNode(n)
	b := NewRPCNode(n)
	if a != b {
		t.Fatal("NewRPCNode should return the shared instance per node")
	}
}
