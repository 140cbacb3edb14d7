package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

const (
	settleTimeout = 60 * time.Second
	startTimeout  = 30 * time.Second
	callTimeout   = 30 * time.Second
	heartbeat     = 50 * time.Millisecond
	resumeGrace   = 5 * time.Second
	// quietFor is how long the shards must run no round before a set-up
	// counts as settled.
	quietFor = 20 * time.Millisecond
)

// waitUntil polls cond every millisecond until it holds or timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("still waiting after %s", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// fleetHandler is the in-process handler of every standing-fleet session.
type fleetHandler struct {
	views, starts, kills atomic.Int64
}

func (h *fleetHandler) OnViews(_, _ view.View)    { h.views.Add(1) }
func (h *fleetHandler) OnStart(request.ID, []int) { h.starts.Add(1) }
func (h *fleetHandler) OnKill(string)             { h.kills.Add(1) }

// startBox is a churn client's notification handler. A start can arrive
// before its request's ack, so starts are buffered by request ID until the
// cycle that owns the ID claims them. A start's node counts as held from
// the moment both the start and its cluster are known (start arrival, or
// the ack for an early start) until just before the cycle sends done().
type startBox struct {
	held    *heldNodes
	mu      sync.Mutex
	waiting map[request.ID]waiter
	early   map[request.ID][]int // delivered, not yet claimed
	seen    map[request.ID]bool
	dups    int

	views, kills atomic.Int64
}

// waiter is an acked request waiting for its start.
type waiter struct {
	cid view.ClusterID
	ch  chan claim
}

// claim is a delivered start: its nodes, and why they could not be held.
type claim struct {
	nodes []int
	err   error
}

func newStartBox(held *heldNodes) *startBox {
	return &startBox{held: held, waiting: make(map[request.ID]waiter), early: make(map[request.ID][]int), seen: make(map[request.ID]bool)}
}

func (b *startBox) OnViews(_, _ view.View) { b.views.Add(1) }
func (b *startBox) OnKill(string)          { b.kills.Add(1) }

func (b *startBox) OnStart(id request.ID, nodeIDs []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seen[id] {
		b.dups++
		return
	}
	b.seen[id] = true
	if wt, ok := b.waiting[id]; ok {
		delete(b.waiting, id)
		wt.ch <- claim{nodeIDs, b.held.take(wt.cid, nodeIDs)}
		return
	}
	b.early[id] = nodeIDs
}

// wait claims the start of a request acked on cid. On success the node is
// held; the caller releases it before done().
func (b *startBox) wait(id request.ID, cid view.ClusterID) ([]int, error) {
	b.mu.Lock()
	if nodes, ok := b.early[id]; ok {
		delete(b.early, id)
		err := b.held.take(cid, nodes)
		b.mu.Unlock()
		return nodes, err
	}
	ch := make(chan claim, 1)
	b.waiting[id] = waiter{cid, ch}
	b.mu.Unlock()
	t := time.NewTimer(startTimeout)
	defer t.Stop()
	select {
	case c := <-ch:
		return c.nodes, c.err
	case <-t.C:
		b.mu.Lock()
		_, pending := b.waiting[id]
		delete(b.waiting, id)
		b.mu.Unlock()
		if !pending { // the start came in as the timer fired
			c := <-ch
			return c.nodes, c.err
		}
		return nil, fmt.Errorf("request %d: no start within %s", id, startTimeout)
	}
}

// heldNodes tracks the node IDs of running churn jobs per cluster.
type heldNodes struct {
	mu   sync.Mutex
	byCl map[view.ClusterID]map[int]bool
}

// take records the node of a started 1-node job and fails if the node is
// outside the cluster or already held; release forgets it.
func (h *heldNodes) take(cid view.ClusterID, nodes []int) error {
	if len(nodes) != 1 {
		return fmt.Errorf("1-node job on %s got %d nodes", cid, len(nodes))
	}
	n := nodes[0]
	if n < 0 || n >= nodesPer {
		return fmt.Errorf("node %d outside cluster %s", n, cid)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	set := h.byCl[cid]
	if set == nil {
		set = make(map[int]bool)
		h.byCl[cid] = set
	}
	if set[n] {
		return fmt.Errorf("node %d of %s given to two running jobs", n, cid)
	}
	set[n] = true
	return nil
}

func (h *heldNodes) release(cid view.ClusterID, nodes []int) {
	h.mu.Lock()
	delete(h.byCl[cid], nodes[0])
	h.mu.Unlock()
}

type churnClient struct {
	cl  *transport.Client
	box *startBox
	app int
	pin view.ClusterID // rpc: the client's only cluster
}

// instance is one set-up federation behind a TCP server, with its clients.
type instance struct {
	w       workload
	cids    []view.ClusterID
	fed     *federation.Federator
	reg     *obs.Registry
	fleet   *fleetHandler
	srv     *transport.Server
	served  chan struct{}
	clients []*churnClient
	tr      *tracer // nil when untraced
	held    *heldNodes
}

// build sets the workload up: federation on the real clock, standing fleet
// admitted in-process and settled, TCP server on loopback, clients dialed
// with production resilience options, shards quiet again.
func build(w workload, seed int64, traced bool) (*instance, error) {
	cids, sizes := clusterIDs()
	in := &instance{
		w: w, cids: cids, reg: obs.NewRegistry(), fleet: &fleetHandler{},
		served: make(chan struct{}), held: &heldNodes{byCl: make(map[view.ClusterID]map[int]bool)},
	}
	in.fed = federation.New(federation.Config{
		Clusters:        sizes,
		Shards:          nShards,
		ReschedInterval: w.interval,
		GracePeriod:     1e18, // standing applications ignore view changes
		Clock:           clock.NewRealClock(),
		Obs:             in.reg,
		Scheduling:      schedulingFor(w, sizes),
	})
	if w.fleet != nil {
		// The fleet is admitted on one P. On two, the admission loop races
		// the shards' first rounds: some set-ups admit everything in 3 ms,
		// others interleave 100+ rounds, and set-up cost turns bimodal.
		prev := runtime.GOMAXPROCS(1)
		startable, err := w.fleet(in.fed, cids, in.fleet, in.fleet.starts.Load)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			in.stopShards()
			return nil, fmt.Errorf("admit fleet: %w", err)
		}
		if err := waitUntil(settleTimeout, func() bool { return in.fleet.starts.Load() >= int64(startable) }); err != nil {
			in.stopShards()
			return nil, fmt.Errorf("settle: %d of %d standing starts: %w", in.fleet.starts.Load(), startable, err)
		}
	}
	if traced {
		in.tr = newTracer()
		in.srv = transport.NewBackendServer(tracedBackend{fed: in.fed, tr: in.tr})
	} else {
		in.srv = transport.NewFederatedServer(in.fed)
	}
	in.srv.Grace = resumeGrace
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		in.stopShards()
		return nil, err
	}
	go func() {
		defer close(in.served)
		_ = in.srv.Serve() // returns nil once Close runs; a failure shows as dial errors
	}()
	pins := rand.New(rand.NewSource(seed))
	first := pins.Intn(nClusters)
	for k := 0; k < nClients; k++ {
		box := newStartBox(in.held)
		cl, err := transport.DialOptions(addr, box, transport.Options{
			Reconnect: true, HeartbeatInterval: heartbeat, CallTimeout: callTimeout,
			Seed: seed*nClients + int64(k) + 1, Tenant: w.tenant,
		})
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		// rpc pins the clients to clusters of different shards.
		pin := cids[(first+k*(1+nShards*pins.Intn(nClusters/nShards-1)))%nClusters]
		in.clients = append(in.clients, &churnClient{cl: cl, box: box, app: cl.AppID(), pin: pin})
	}
	if err := in.quiesce(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// quiesce waits until no shard has run a round for quietFor.
func (in *instance) quiesce() error {
	rounds := func() int64 {
		var n int64
		for i := 0; i < in.fed.NumShards(); i++ {
			n += in.fed.Shard(i).SchedStats().Rounds
		}
		return n
	}
	last, since := rounds(), time.Now()
	return waitUntil(settleTimeout, func() bool {
		if n := rounds(); n != last {
			last, since = n, time.Now()
		}
		return time.Since(since) >= quietFor
	})
}

func (in *instance) stopShards() {
	for i := 0; i < in.fed.NumShards(); i++ {
		in.fed.Shard(i).Stop()
	}
}

// close disconnects the clients, stops the server and the shards, and
// waits for the server's accept loop to end.
func (in *instance) close() {
	for _, c := range in.clients {
		_ = c.cl.Close() // a failed Bye only skips the clean disconnect
	}
	in.srv.Close()
	<-in.served
	in.stopShards()
}

// cycleTimes are the instants one churn cycle reached, from its due time.
type cycleTimes struct {
	ack, start, done time.Duration
}

// cycle runs one request() → start → done() cycle on cid.
func (in *instance) cycle(c *churnClient, cid view.ClusterID, due time.Time) (cycleTimes, error) {
	var ct cycleTimes
	t0 := time.Now()
	id, err := c.cl.Request(rms.RequestSpec{Cluster: cid, N: 1, Duration: churnDuration, Type: request.NonPreempt})
	tAck := time.Now()
	in.tr.record(spReq, c.app, id, t0, tAck)
	if err != nil {
		return ct, fmt.Errorf("request on %s: %w", cid, err)
	}
	ct.ack, ct.start = tAck.Sub(due), tAck.Sub(due)
	var failed error
	var held []int // node to release before done()
	if in.w.starts {
		nodes, err := c.box.wait(id, cid)
		tStart := time.Now()
		in.tr.record(spWaitStart, c.app, id, tAck, tStart)
		ct.start = tStart.Sub(due)
		if err == nil {
			held = nodes
		}
		failed = err
	}
	// The server cannot hand the node to another job before it receives
	// done(), so this is the latest sound release.
	if held != nil {
		in.held.release(cid, held)
	}
	t1 := time.Now()
	err = c.cl.Done(id, nil)
	tDone := time.Now()
	in.tr.record(spDone, c.app, id, t1, tDone)
	in.tr.record(spCycle, c.app, id, due, tDone)
	ct.done = tDone.Sub(due)
	if err != nil {
		failed = errors.Join(failed, fmt.Errorf("done(%d) on %s: %w", id, cid, err))
	}
	return ct, failed
}

// rotation yields the clusters of consecutive cycles: blocks of blockLen
// cycles on one cluster, each block's cluster drawn from rng.
type rotation struct {
	rng *rand.Rand
	cur view.ClusterID
	n   int
}

func (r *rotation) next(cids []view.ClusterID) view.ClusterID {
	if r.n%blockLen == 0 {
		r.cur = cids[r.rng.Intn(len(cids))]
	}
	r.n++
	return r.cur
}

// tally collects cycle outcomes from concurrent goroutines.
type tally struct {
	mu                 sync.Mutex
	attempted, failed  int
	errs               []string
	ack, start, cycles []float64 // ms from due time
	late               []float64 // ms the generator launched after due time
}

func (t *tally) add(ct cycleTimes, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.ack = append(t.ack, ms(ct.ack))
	t.start = append(t.start, ms(ct.start))
	t.cycles = append(t.cycles, ms(ct.done))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// load is the seeded input of a pass: the open phase's arrival process
// and every client's cluster rotation. It carries over from block to block.
type load struct {
	rng    *rand.Rand // open phase: gaps and block clusters
	rot    *rotation
	closed []*rotation // closed phase, one per client
	next   int         // open-phase arrivals so far (round-robin index)
}

func newLoad(seed int64) *load {
	rng := rand.New(rand.NewSource(seed))
	l := &load{rng: rng, rot: &rotation{rng: rng}}
	for k := 0; k < nClients; k++ {
		l.closed = append(l.closed, &rotation{rng: rand.New(rand.NewSource(seed*nClients + int64(k) + 7))})
	}
	return l
}

// openPhase issues Poisson arrivals at the workload's rate for d,
// round-robin over the clients, without capping cycles in flight, and
// waits for every cycle to end.
func (in *instance) openPhase(l *load, d time.Duration, t *tally) {
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(l.rng.ExpFloat64() / in.w.rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		c := in.clients[l.next%nClients]
		l.next++
		cid := c.pin // rpc's clients stay on their cluster
		if in.w.starts {
			cid = l.rot.next(in.cids)
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := ms(time.Since(due))
		t.mu.Lock()
		t.late = append(t.late, late)
		t.mu.Unlock()
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			t.add(in.cycle(c, cid, due))
		}(due)
	}
	wg.Wait()
}

// closedPhase runs cycles back to back on every client for d.
func (in *instance) closedPhase(l *load, d time.Duration, t *tally) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for k, c := range in.clients {
		wg.Add(1)
		go func(rot *rotation, c *churnClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cid := c.pin // rpc's clients stay on their cluster
				if in.w.starts {
					cid = rot.next(in.cids)
				}
				t.add(in.cycle(c, cid, time.Now()))
			}
		}(l.closed[k], c)
	}
	wg.Wait()
}

// check is one end-of-run correctness check.
type check struct {
	name string
	err  error
}

// checks verifies what the cycles alone cannot: federation invariants,
// a clean wire, no stray starts and no killed session.
func (in *instance) checks() []check {
	var out []check
	add := func(name string, err error) { out = append(out, check{name, err}) }
	add("federation invariants", in.fed.CheckInvariants())
	st := in.srv.Stats()
	for _, k := range []string{"evictions", "conn_drops", "resumes"} {
		var err error
		if st[k] != 0 {
			err = fmt.Errorf("%d", st[k])
		}
		add("transport "+k+" = 0", err)
	}
	for i, c := range in.clients {
		var errs []error
		if n := c.cl.Reconnects(); n != 0 {
			errs = append(errs, fmt.Errorf("%d reconnects", n))
		}
		if n := c.cl.UnsolicitedErrors(); n != 0 {
			errs = append(errs, fmt.Errorf("%d unsolicited errors", n))
		}
		if n := c.box.kills.Load(); n != 0 {
			errs = append(errs, fmt.Errorf("killed %d times", n))
		}
		c.box.mu.Lock()
		if c.box.dups != 0 {
			errs = append(errs, fmt.Errorf("%d duplicate starts", c.box.dups))
		}
		if n := len(c.box.early); n != 0 {
			errs = append(errs, fmt.Errorf("%d starts for unknown request IDs", n))
		}
		c.box.mu.Unlock()
		add(fmt.Sprintf("client %d clean", i), errors.Join(errs...))
	}
	var err error
	if n := in.fleet.kills.Load(); n != 0 {
		err = fmt.Errorf("%d standing sessions killed", n)
	}
	add("standing fleet alive", err)
	return out
}
