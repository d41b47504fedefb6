// Package orchestrator is the container-orchestration substrate standing in
// for docker swarm in the paper's testbed (§3.1): it deploys one container
// per microservice, schedules containers across server nodes with swarm's
// default round-robin policy, load-balances calls across a service's
// instances, and supports the fast, lightweight migration strategy
// ServiceFridge relies on — create new instances on the target nodes, then
// terminate the old ones (§5.1, feature 3).
package orchestrator

import (
	"fmt"
	"sort"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// Container is one deployed instance of a microservice.
type Container struct {
	ID      int
	Service string
	Node    *cluster.Server
	// active reports whether the container has finished starting up and
	// receives traffic.
	active bool
	// stopping marks a container scheduled for termination once its
	// replacement activates.
	stopping bool
}

// Orchestrator tracks container placement for one cluster and implements
// app.Placement (Route) for the request executor.
type Orchestrator struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	// StartupDelay is how long a new container takes from creation to
	// serving traffic. Container start is fast (the paper's motivation
	// for start-new-then-kill-old migration); default 500ms.
	StartupDelay time.Duration
	// Rec, when non-nil, receives container lifecycle events (crash,
	// restart, scale). Nil disables recording.
	Rec *obs.Recorder

	nextID     int
	containers map[int]*Container
	// routes holds each service's instances and round-robin cursor. A
	// route, once created, stays the map's value for the orchestrator's
	// lifetime (Restore resets it in place): the executor resolves it once
	// per service.
	routes map[string]*route

	migrations uint64
	started    uint64
	stopped    uint64
	crashes    uint64

	failurePolicy FailurePolicy
}

// New returns an orchestrator for cl.
func New(cl *cluster.Cluster) *Orchestrator {
	return &Orchestrator{
		eng:          cl.Engine(),
		cl:           cl,
		StartupDelay: 500 * time.Millisecond,
		containers:   make(map[int]*Container),
		routes:       make(map[string]*route),
	}
}

// route is one service's instance list, in placement order, and the
// round-robin cursor into it.
type route struct {
	list []*Container
	rr   int
}

// route returns service's route, creating an empty one on first use.
func (o *Orchestrator) route(service string) *route {
	r := o.routes[service]
	if r == nil {
		r = &route{}
		o.routes[service] = r
	}
	return r
}

// Migrations returns the number of MoveService operations performed.
func (o *Orchestrator) Migrations() uint64 { return o.migrations }

// Started and Stopped return cumulative container lifecycle counts.
func (o *Orchestrator) Started() uint64 { return o.started }

// Stopped returns the number of containers terminated.
func (o *Orchestrator) Stopped() uint64 { return o.stopped }

// Place creates a container for service on node. If immediate is true the
// container serves traffic at once (initial deployment); otherwise it
// activates after StartupDelay.
func (o *Orchestrator) Place(service string, node *cluster.Server, immediate bool) *Container {
	if node == nil {
		panic(fmt.Sprintf("orchestrator: Place %q on nil node", service))
	}
	o.nextID++
	c := &Container{ID: o.nextID, Service: service, Node: node, active: immediate}
	o.containers[c.ID] = c
	r := o.route(service)
	r.list = append(r.list, c)
	o.started++
	if !immediate {
		delay := o.StartupDelay
		o.eng.Schedule(delay, func() {
			if _, live := o.containers[c.ID]; live {
				c.active = true
			}
		})
	}
	return c
}

// Remove terminates a container immediately.
func (o *Orchestrator) Remove(c *Container) {
	if _, live := o.containers[c.ID]; !live {
		return
	}
	delete(o.containers, c.ID)
	r := o.routes[c.Service]
	for i, x := range r.list {
		if x.ID == c.ID {
			r.list = append(r.list[:i], r.list[i+1:]...)
			break
		}
	}
	o.stopped++
}

// DeployRoundRobin places one container per service, cycling through the
// cluster's worker nodes in order — docker swarm's default scheduling
// (§3.1: "a fair docker scheduling algorithm (round-robin)"). Containers
// are immediately active (initial deployment).
func (o *Orchestrator) DeployRoundRobin(services []string) {
	o.DeployRoundRobinOver(services, o.cl.Workers())
}

// DeployRoundRobinOver is DeployRoundRobin restricted to the given nodes —
// used to keep the power worker exclusive to an observed microservice
// (§3.1: "We deploy the observed microservice on the power worker apart
// from others").
func (o *Orchestrator) DeployRoundRobinOver(services []string, nodes []*cluster.Server) {
	if len(nodes) == 0 {
		panic("orchestrator: no nodes to deploy on")
	}
	for i, svc := range services {
		o.Place(svc, nodes[i%len(nodes)], true)
	}
}

// DeployPinned places one immediately-active container for each service on
// the named node — the paper's §3.4 isolation methodology (the observed
// microservice alone on Server B).
func (o *Orchestrator) DeployPinned(service, node string) *Container {
	n := o.cl.Server(node)
	if n == nil {
		panic(fmt.Sprintf("orchestrator: unknown node %q", node))
	}
	return o.Place(service, n, true)
}

// NodesOf returns the distinct nodes hosting active instances of service.
func (o *Orchestrator) NodesOf(service string) []*cluster.Server {
	seen := map[string]bool{}
	var out []*cluster.Server
	for _, c := range o.route(service).list {
		if c.active && !seen[c.Node.Name()] {
			seen[c.Node.Name()] = true
			out = append(out, c.Node)
		}
	}
	return out
}

// ServicesOn returns the distinct services with active instances on node,
// sorted for stable iteration.
func (o *Orchestrator) ServicesOn(node *cluster.Server) []string {
	seen := map[string]bool{}
	for _, c := range o.containers {
		if c.active && c.Node == node {
			seen[c.Service] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Route implements app.Placement. The returned picker round-robins calls
// across the service's active instances (swarm's mesh load balancing) and
// returns nil while the service has none. Starting-up instances receive no
// traffic; if nothing is active yet, the oldest stopping/starting
// instance's node is used so traffic never black-holes during migration.
func (o *Orchestrator) Route(service string) func() *cluster.Server {
	return o.route(service).host
}

func (r *route) host() *cluster.Server {
	n := len(r.list)
	if n == 0 {
		return nil
	}
	start := r.rr
	for k := 0; k < n; k++ {
		c := r.list[(start+k)%n]
		if c.active {
			r.rr = (start + k + 1) % n
			return c.Node
		}
	}
	return r.list[0].Node
}

// MoveService migrates service so that its active instances end up exactly
// on targets, using start-new-then-kill-old: new containers are created on
// missing targets, and once they activate, instances elsewhere are
// terminated. Calling it with the current placement is a no-op.
func (o *Orchestrator) MoveService(service string, targets []*cluster.Server) {
	if len(targets) == 0 {
		panic(fmt.Sprintf("orchestrator: MoveService %q with no targets", service))
	}
	want := map[string]*cluster.Server{}
	for _, n := range targets {
		want[n.Name()] = n
	}
	var toKill []*Container
	have := map[string]bool{}
	for _, c := range o.route(service).list {
		if c.stopping {
			continue
		}
		if _, ok := want[c.Node.Name()]; ok {
			have[c.Node.Name()] = true
		} else {
			toKill = append(toKill, c)
		}
	}
	var fresh []*Container
	placed := map[string]bool{}
	for _, n := range targets {
		if !have[n.Name()] && !placed[n.Name()] {
			placed[n.Name()] = true
			fresh = append(fresh, o.Place(service, n, o.StartupDelay == 0))
		}
	}
	if len(fresh) == 0 && len(toKill) == 0 {
		return
	}
	o.migrations++
	for _, c := range toKill {
		c.stopping = true
	}
	kill := func() {
		for _, c := range toKill {
			o.Remove(c)
		}
	}
	if o.StartupDelay == 0 || len(fresh) == 0 {
		kill()
		return
	}
	// Old instances serve until the replacements are up.
	o.eng.Schedule(o.StartupDelay, kill)
}
