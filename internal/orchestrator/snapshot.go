package orchestrator

// State is a deep copy of the orchestrator's mutable state: the container
// registry, per-service routes (instance lists and round-robin cursors),
// lifecycle counters and the per-container activation flags. Container
// objects keep their identity across Restore (pending activation/kill
// closures in the calendar reference them); containers created after the
// snapshot simply drop out of the registry.
type State struct {
	nextID        int
	containers    map[int]*Container
	routes        map[*route]route
	migrations    uint64
	started       uint64
	stopped       uint64
	crashes       uint64
	failurePolicy FailurePolicy
	flags         []containerFlags
}

type containerFlags struct {
	ptr              *Container
	active, stopping bool
}

// Snapshot captures the orchestrator's state.
func (o *Orchestrator) Snapshot() *State {
	s := &State{
		nextID:        o.nextID,
		containers:    make(map[int]*Container, len(o.containers)),
		routes:        make(map[*route]route, len(o.routes)),
		migrations:    o.migrations,
		started:       o.started,
		stopped:       o.stopped,
		crashes:       o.crashes,
		failurePolicy: o.failurePolicy,
		flags:         make([]containerFlags, 0, len(o.containers)),
	}
	for id, c := range o.containers {
		s.containers[id] = c
		s.flags = append(s.flags, containerFlags{ptr: c, active: c.active, stopping: c.stopping})
	}
	for _, r := range o.routes {
		s.routes[r] = route{list: append([]*Container(nil), r.list...), rr: r.rr}
	}
	return s
}

// Restore rewinds the orchestrator to the snapshot. Routes are reset in
// place, never replaced: the executor holds each one's picker. A route
// first created after the snapshot rewinds to empty, which routes exactly
// like a service never placed. Instance lists are refilled from fresh
// copies (Remove mutates list backing arrays in place, so the snapshot's
// own copies must never be handed to live state).
func (o *Orchestrator) Restore(s *State) {
	o.nextID = s.nextID
	o.migrations = s.migrations
	o.started = s.started
	o.stopped = s.stopped
	o.crashes = s.crashes
	o.failurePolicy = s.failurePolicy
	clear(o.containers)
	for id, c := range s.containers {
		o.containers[id] = c
	}
	for _, r := range o.routes {
		saved := s.routes[r]
		r.list = append(r.list[:0:0], saved.list...)
		r.rr = saved.rr
	}
	for _, f := range s.flags {
		f.ptr.active, f.ptr.stopping = f.active, f.stopping
	}
}
