package orchestrator

import (
	"testing"
	"time"

	"servicefridge/internal/cluster"
)

func TestScaleUpSpreadsAcrossNodes(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	nodes := []*cluster.Server{cl.Server("serverC1"), cl.Server("serverC2"), cl.Server("serverC3")}
	o.Scale("svc", 3, nodes)
	if got := o.Replicas("svc"); got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
	eng.RunFor(time.Second)
	if got := len(o.NodesOf("svc")); got != 3 {
		t.Fatalf("active on %d nodes, want 3 (spread)", got)
	}
}

func TestScaleDownRemovesNewestFirst(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	first := o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	o.Place("svc", cl.Server("serverC3"), true)
	o.Scale("svc", 1, nil) // shrink needs no candidates
	if got := o.Replicas("svc"); got != 1 {
		t.Fatalf("replicas = %d, want 1", got)
	}
	eng.RunFor(time.Second)
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0] != first.Node {
		t.Fatalf("survivor on %v, want the oldest (%s)", nodes, first.Node.Name())
	}
}

func TestScaleNoopAtTarget(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	started := o.Started()
	o.Scale("svc", 1, []*cluster.Server{cl.Server("serverC2")})
	if o.Started() != started {
		t.Fatal("Scale at target created containers")
	}
}

func TestScaleValidation(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	for _, fn := range []func(){
		func() { o.Scale("svc", 0, nil) },
		func() { o.Scale("svc", 2, nil) }, // grow without candidates
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScaleBalancesExistingReplicas(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	// Two replicas already on C1; scaling to 3 must pick a different node.
	o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC1"), true)
	nodes := []*cluster.Server{cl.Server("serverC1"), cl.Server("serverC2")}
	o.Scale("svc", 3, nodes)
	eng.RunFor(time.Second)
	if got := len(o.NodesOf("svc")); got != 2 {
		t.Fatalf("replicas on %d nodes, want 2", got)
	}
}

func TestCrashRemovesAndCounts(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	c := o.Place("svc", cl.Server("serverC1"), true)
	o.Crash(c)
	if o.Replicas("svc") != 0 {
		t.Fatal("crashed container still counted")
	}
	if o.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", o.Crashes())
	}
	o.Crash(c) // idempotent
	if o.Crashes() != 1 {
		t.Fatal("double crash counted twice")
	}
}

func TestCrashSurvivorKeepsServing(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	c1 := o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	o.Crash(c1)
	for i := 0; i < 5; i++ {
		host := o.Route("svc")()
		if host == nil || host.Name() != "serverC2" {
			t.Fatalf("traffic not failing over: %v", host)
		}
	}
}

func TestCrashAutoRestart(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.SetFailurePolicy(FailurePolicy{AutoRestart: true, RestartDelay: time.Second})
	c := o.Place("svc", cl.Server("serverC1"), true)
	o.Crash(c)
	if o.Replicas("svc") != 0 {
		t.Fatal("replacement should not exist during restart delay")
	}
	// Restart delay (1s) + startup delay (500ms).
	eng.RunFor(2 * time.Second)
	if o.Replicas("svc") != 1 {
		t.Fatalf("replicas after restart = %d, want 1", o.Replicas("svc"))
	}
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC1" {
		t.Fatalf("restarted on %v, want original node", nodes)
	}
}

func TestCrashOnFindsByNode(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	if !o.CrashOn("svc", "serverC1") {
		t.Fatal("CrashOn missed the container")
	}
	if o.CrashOn("svc", "serverC1") {
		t.Fatal("CrashOn found a ghost")
	}
	if o.CrashOn("other", "serverC1") {
		t.Fatal("CrashOn found unknown service")
	}
}

func TestHostForBalancesReplicasUnderScale(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.Scale("svc", 3, []*cluster.Server{
		cl.Server("serverC1"), cl.Server("serverC2"), cl.Server("serverC3"),
	})
	eng.RunFor(time.Second)
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		seen[o.Route("svc")().Name()]++
	}
	for n, c := range seen {
		if c != 3 {
			t.Fatalf("uneven balance: %s got %d of 9", n, c)
		}
	}
}
