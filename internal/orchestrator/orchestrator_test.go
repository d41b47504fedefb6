package orchestrator

import (
	"strings"
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

func testCluster() (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine(1)
	return eng, cluster.DefaultTestbed(eng)
}

func TestDeployRoundRobinCyclesWorkers(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	services := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	o.DeployRoundRobin(services)
	// Workers order: B, C1, C2, C3, then manager A; 6 services wrap once.
	wantNode := []string{"serverB", "serverC1", "serverC2", "serverC3", "serverA", "serverB"}
	for i, svc := range services {
		nodes := o.NodesOf(svc)
		if len(nodes) != 1 || nodes[0].Name() != wantNode[i] {
			t.Fatalf("%s on %v, want %s", svc, nodes, wantNode[i])
		}
	}
	if got := o.ServicesOn(cl.Server("serverB")); len(got) != 2 {
		t.Fatalf("serverB hosts %v, want 2 services", got)
	}
}

func TestHostForRoundRobinsAcrossInstances(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		seen[o.Route("svc")().Name()]++
	}
	if seen["serverC1"] != 5 || seen["serverC2"] != 5 {
		t.Fatalf("load balance skewed: %v", seen)
	}
}

func TestHostForUnknownService(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	if o.Route("ghost")() != nil {
		t.Fatal("unknown service should have nil host")
	}
}

func TestPinnedDeployment(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	c := o.DeployPinned("observed", "serverB")
	if !c.active || c.Node.Name() != "serverB" {
		t.Fatal("pinned container wrong")
	}
	if o.Route("observed")().Name() != "serverB" {
		t.Fatal("pinned service should resolve to serverB")
	}
}

func TestStartupDelayGatesTraffic(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	c2 := o.Place("svc", cl.Server("serverC2"), false)
	if c2.active {
		t.Fatal("new container active before startup delay")
	}
	// Until activation every call goes to C1.
	for i := 0; i < 4; i++ {
		if o.Route("svc")().Name() != "serverC1" {
			t.Fatal("starting container received traffic")
		}
	}
	eng.RunFor(time.Second)
	if !c2.active {
		t.Fatal("container did not activate after delay")
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		seen[o.Route("svc")().Name()] = true
	}
	if !seen["serverC2"] {
		t.Fatal("activated container gets no traffic")
	}
}

func TestMoveServiceStartNewThenKillOld(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2")})

	// During migration, traffic still flows to the old node.
	if o.Route("svc")().Name() != "serverC1" {
		t.Fatal("traffic dropped during migration")
	}
	if len(o.route("svc").list) != 2 {
		t.Fatalf("instances during migration = %d, want 2", len(o.route("svc").list))
	}
	eng.RunFor(time.Second)
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC2" {
		t.Fatalf("after migration on %v, want serverC2", nodes)
	}
	if len(o.route("svc").list) != 1 {
		t.Fatal("old instance not terminated")
	}
	if o.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", o.Migrations())
	}
}

func TestMoveServiceNoopWhenAlreadyPlaced(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC1")})
	if o.Migrations() != 0 {
		t.Fatal("no-op move counted as migration")
	}
	if len(o.route("svc").list) != 1 {
		t.Fatal("no-op move changed instances")
	}
}

func TestMoveServiceImmediateWhenZeroDelay(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.StartupDelay = 0
	o.Place("svc", cl.Server("serverC1"), true)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2")})
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC2" {
		t.Fatalf("immediate move landed on %v", nodes)
	}
}

func TestMoveServiceExpandAndShrink(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	// Expand to two nodes.
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC1"), cl.Server("serverC2")})
	eng.RunFor(time.Second)
	if len(o.NodesOf("svc")) != 2 {
		t.Fatalf("expand failed: %d nodes", len(o.NodesOf("svc")))
	}
	// Shrink back to one.
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2")})
	eng.RunFor(time.Second)
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC2" {
		t.Fatalf("shrink failed: %v", nodes)
	}
}

func TestMoveServiceEmptyTargetsPanics(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.MoveService("svc", nil)
}

func TestRemoveIdempotent(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	c := o.Place("svc", cl.Server("serverC1"), true)
	o.Remove(c)
	o.Remove(c)
	if o.Stopped() != 1 {
		t.Fatalf("stopped = %d, want 1", o.Stopped())
	}
	if len(o.route("svc").list) != 0 {
		t.Fatal("instance list not emptied")
	}
}

func TestLifecycleCounters(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("a", cl.Server("serverC1"), true)
	o.Place("b", cl.Server("serverC2"), true)
	o.MoveService("a", []*cluster.Server{cl.Server("serverC3")})
	eng.RunFor(time.Second)
	if o.Started() != 3 || o.Stopped() != 1 {
		t.Fatalf("started/stopped = %d/%d, want 3/1", o.Started(), o.Stopped())
	}
	if got := len(o.routes); got != 2 {
		t.Fatalf("%d services, want 2", got)
	}
}

// TestRouteSequenceAcrossMoveSnapshotRestore pins the round-robin host
// sequence through placement, migration, snapshot and restore to the one
// recorded from the string-keyed implementation the routes replaced. The
// pickers are resolved once, before anything is placed, as the executor
// resolves them.
func TestRouteSequenceAcrossMoveSnapshotRestore(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	pick, late := o.Route("svc"), o.Route("late")
	var seq []string
	draw := func(n int, p func() *cluster.Server) {
		for i := 0; i < n; i++ {
			if h := p(); h != nil {
				seq = append(seq, strings.TrimPrefix(h.Name(), "server"))
			} else {
				seq = append(seq, "-")
			}
		}
		seq = append(seq, "|")
	}
	draw(2, pick)
	o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	draw(3, pick)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2"), cl.Server("serverC3"), cl.Server("serverB")})
	draw(4, pick)
	snap := o.Snapshot()
	eng.RunFor(time.Second)
	draw(5, pick)
	o.Place("late", cl.Server("serverA"), true)
	draw(2, late)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC1")})
	draw(3, pick)
	o.Restore(snap)
	draw(5, pick)
	draw(2, late)
	eng.RunFor(time.Second)
	draw(5, pick)
	o.Restore(snap)
	o.Place("svc", cl.Server("serverA"), true)
	draw(6, pick)
	const want = "- - | C1 C2 C1 | C2 C1 C2 C1 | C3 B C2 C3 B | A A | C2 C3 B | " +
		"C2 C1 C2 C1 C2 | - - | C1 C1 C1 C1 C1 | C2 A C1 C2 A C1 |"
	if got := strings.Join(seq, " "); got != want {
		t.Fatalf("host sequence\n got %s\nwant %s", got, want)
	}
}
