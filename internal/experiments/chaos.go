package experiments

import (
	"fmt"
	"math"

	"coormv2/internal/apps"
	"coormv2/internal/chaos"
	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/tenants"
	"coormv2/internal/view"
	"coormv2/internal/workload"
)

// ChaosReplayConfig parametrizes the chaos scenario: the federated rigid
// trace + scavenging PSAs of RunFederatedReplay, with a seeded shard
// crash/restart schedule injected on top and a recovery policy deciding the
// fate of the affected sessions. With ClustersPerShard > 1 it doubles as the
// rebalancing scenario: HotJobFraction skews the trace onto shard 0's
// clusters, and Rebalance arms a live cluster-migration loop on top of (or
// instead of) the fault plan.
type ChaosReplayConfig struct {
	// Jobs is the rigid trace, assigned to clusters round-robin (see
	// HotJobFraction for the skewed variant).
	Jobs []workload.Job
	// Shards is the scheduler shard count.
	Shards int
	// NodesPerShard sizes each cluster. (Historically one cluster per shard,
	// hence the name; with ClustersPerShard > 1 a shard's capacity is
	// ClustersPerShard × NodesPerShard.)
	NodesPerShard int
	// ClustersPerShard is the number of clusters initially partitioned onto
	// each shard; 0 or 1 selects the classic one-cluster-per-shard layout.
	ClustersPerShard int
	// HotJobFraction, in (0,1], pins that fraction of the trace onto the
	// clusters initially owned by shard 0 — the load skew the rebalancer
	// exists to dissolve. 0 spreads the trace over all clusters evenly.
	HotJobFraction float64
	// Rebalance, when non-nil, runs a federation.Rebalancer with this
	// configuration for the whole replay. The federation invariant checker
	// runs after every migration (on top of the per-fault checks) and any
	// violation fails the run.
	Rebalance *federation.RebalancerConfig
	// PSATaskDur, when positive, adds one scavenging PSA per cluster.
	PSATaskDur float64
	// GangFraction, in [0,1], gives that fraction of the rigid jobs a gang
	// companion: a second request related (alternating NEXT/COALLOC by job
	// index) to the job's own request, targeting the next cluster in index
	// order. Under the round-robin partition that cluster starts on the
	// next shard, so with Shards > 1 the companions exercise the cross-shard
	// two-phase reservation path; with Shards == 1 they collapse to ordinary
	// same-shard relations — the 1-shard differential baseline.
	GangFraction float64
	// Recovery selects what happens to sessions whose shard crashes.
	Recovery federation.RecoveryPolicy
	// NodeRecovery selects what happens to started requests that lose
	// machines to node-level faults (armed when Chaos.NodeMTTF > 0).
	NodeRecovery rms.NodeRecoveryPolicy
	// Chaos seeds and shapes the fault plan.
	Chaos chaos.Config
	// MaxSimTime aborts runaway replays (default 10^9 s).
	MaxSimTime float64
	// Obs, when non-nil, is threaded through the federation, every shard
	// and the fault injector, collecting latency histograms, counters and
	// the structured event ring for the run; ChaosReplayResult.Snapshot is
	// then its end-of-run snapshot. All durations are measured on the
	// simulated clock, so same-seed snapshots are byte-identical.
	Obs *obs.Registry
	// FullRecompute disables incremental scheduling on every shard. The
	// incremental≡full differential test runs the same seeded
	// chaos×migration replay in both modes and requires byte-identical
	// results (cache invalidation across crash, restart and migration is
	// exactly what it pins down).
	FullRecompute bool
	// Tenants, when non-nil, switches every shard from connection-order
	// FIFO to the DRF queue-hierarchy policy over this (sealed) tree — one
	// policy instance per shard, shared tree, so a queue's per-cluster
	// guarantees follow its clusters through migration — and tags each
	// rigid job's session with TenantOf(job index). Scavenging PSAs stay
	// untagged and land in the default queue, which makes them the natural
	// quota-preemption victims when a guaranteed queue is starved.
	Tenants *tenants.Tree
	// TenantOf assigns rigid job i its tenant queue label. Only consulted
	// when Tenants is non-nil; nil files every job in the default queue.
	TenantOf func(job int) string
}

// ChaosReplayResult aggregates one chaos replay. Every field is a pure
// function of the configuration: the determinism test pins two same-seed
// runs to identical results, including the fault trace and the event-stream
// fingerprint.
type ChaosReplayResult struct {
	Shards int
	Nodes  int
	Policy federation.RecoveryPolicy

	// Completed/Killed/Rejected partition the rigid jobs: finished normally,
	// killed with their crashed shard (KillOnCrash), or refused at
	// submission because the target shard was down (KillOnCrash).
	Completed int
	Killed    int
	Rejected  int

	Crashes  int
	Restarts int

	// Node-fault accounting (zero when Chaos.NodeMTTF == 0). NodeFails and
	// NodeRecovers count unique injected machine events; NodeKilled/
	// NodeRequeued/NodeReduced count affected requests by the action taken
	// (re-applications after a shard restart included). LostWork sums the
	// rigid jobs' node·seconds of lost computation (killed runs, repeated
	// requeued runs); Resubmits counts cooperative checkpoint-resubmissions.
	NodePolicy   rms.NodeRecoveryPolicy
	NodeFails    int
	NodeRecovers int
	NodeKilled   int
	NodeRequeued int
	NodeReduced  int
	LostWork     float64
	Resubmits    int

	// Migrations/MigratedRequests/MigrationTrace report the rebalancer's
	// work (zero/empty when ChaosReplayConfig.Rebalance is nil).
	Migrations       int
	MigratedRequests int
	MigrationTrace   []string
	// ShardChurn is each shard's cumulative accepted-request churn at the
	// end of the run, summed over the clusters it then owns (churn counters
	// migrate with their cluster). The max/mean ratio across shards is the
	// residual load imbalance.
	ShardChurn []int64

	// Fault-recovery counters over all applications (PSAs included).
	KilledSessions   int
	RequeuedRequests int
	ReplayedRequests int
	DroppedRequests  int

	// Cross-shard reservation accounting (zero when GangFraction == 0 or
	// Shards == 1): committed, aborted-for-good, and release→re-place
	// retried gangs.
	GangsCommitted int
	GangsAborted   int
	GangsRetried   int

	MeanWait float64 // completed rigid jobs only
	MaxWait  float64
	Makespan float64

	TotalArea    float64
	TotalWaste   float64
	UsedFraction float64

	Events int64
	// EventHash is an FNV-1a fingerprint of the full simulator event stream
	// (time bits + event name, in firing order): two runs are byte-identical
	// iff their hashes match.
	EventHash uint64
	// Trace is the injector's fault trace: one line per executed
	// crash/restart, in execution order.
	Trace []string

	// TenantPreempts is the end-of-run per-tenant quota-preemption tally
	// summed over running shards (nil unless ChaosReplayConfig.Tenants was
	// set). Like every other field it is a pure function of the seed.
	TenantPreempts map[string]int64

	// Snapshot is the end-of-run observability snapshot (nil unless
	// ChaosReplayConfig.Obs was set).
	Snapshot *obs.Snapshot
}

// chaosRigid wraps a rigid job so that it settles exactly once — completed,
// killed, or rejected — no matter how many end timers or notifications the
// crash/replay machinery produces.
type chaosRigid struct {
	*apps.Rigid
	settled bool
	settle  func(outcome string)
}

func (w *chaosRigid) settleOnce(outcome string) {
	if w.settled {
		return
	}
	w.settled = true
	w.settle(outcome)
}

func (w *chaosRigid) OnKill(reason string) {
	w.Rigid.OnKill(reason)
	w.settleOnce("killed")
}

// OnRequestFinished settles the job as completed on the server-authoritative
// finish event (forwarded through the federation under the federated ID).
// Unlike the application's own end timer, it is delivered exactly when the
// allocation actually finished — including after a crash-requeued re-run,
// whose first-run timer would otherwise settle the job while the re-run is
// still queued or executing. Only the job's *current* request counts: a
// cooperative node-failure recovery finishes the superseded request while
// the resubmitted remainder is still pending, and that finish is a
// checkpoint hand-over, not a completion.
func (w *chaosRigid) OnRequestFinished(id request.ID) {
	if id != w.RequestID() {
		return
	}
	w.settleOnce("completed")
}

// OnRequestsReaped settles a job whose current request was dropped: a reap
// without a preceding finish means the work never completed (killed by a
// node failure, replay rejected, or the queue entry withdrawn), so the job
// counts as killed. Reaps of superseded requests (a cooperative recovery's
// released predecessor) and reaps after a normal finish are no-ops.
func (w *chaosRigid) OnRequestsReaped(ids []request.ID) {
	for _, id := range ids {
		if id == w.RequestID() {
			w.settleOnce("killed")
			return
		}
	}
}

// RunChaosReplay replays a rigid-job stream through a federated RMS while a
// deterministic, seeded fault plan crashes and restarts shards. The
// federation invariant checker runs after every fault and once after the
// run; any violation is returned as an error.
func RunChaosReplay(cfg ChaosReplayConfig) (*ChaosReplayResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty job stream")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ClustersPerShard < 1 {
		cfg.ClustersPerShard = 1
	}
	if cfg.NodesPerShard <= 0 {
		return nil, fmt.Errorf("experiments: need a positive per-shard node count")
	}
	if cfg.HotJobFraction < 0 || cfg.HotJobFraction > 1 {
		return nil, fmt.Errorf("experiments: HotJobFraction %g outside [0,1]", cfg.HotJobFraction)
	}
	if cfg.GangFraction < 0 || cfg.GangFraction > 1 {
		return nil, fmt.Errorf("experiments: GangFraction %g outside [0,1]", cfg.GangFraction)
	}
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = 1e9
	}

	e := sim.NewEngine()
	// Fingerprint the full event stream: time bits plus event name per
	// fired event, FNV-1a. Hand-rolled rather than hash/fnv: Write would
	// need a []byte(name) conversion — one allocation per fired event, on a
	// stream of ~10^6 events per run — where this loop allocates nothing.
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hash := uint64(fnvOffset)
	e.SetObserver(func(at float64, name string) {
		bits := math.Float64bits(at)
		for i := 0; i < 8; i++ {
			hash ^= uint64(byte(bits >> (8 * i)))
			hash *= fnvPrime
		}
		for i := 0; i < len(name); i++ {
			hash ^= uint64(name[i])
			hash *= fnvPrime
		}
	})

	clk := clock.SimClock{E: e}
	// Cluster names sort in index order, so federation.Partition assigns
	// cluster j to shard j % Shards: shard 0's initial clusters are exactly
	// the indices ≡ 0 (mod Shards) — the "hot" set of the skewed trace.
	totalClusters := cfg.Shards * cfg.ClustersPerShard
	clusters := make(map[view.ClusterID]int, totalClusters)
	for i := 0; i < totalClusters; i++ {
		clusters[federatedCluster(i)] = cfg.NodesPerShard
	}
	clientRec := metrics.NewRecorder()
	recs := []*metrics.Recorder{clientRec}
	var scheduling func(int) core.SchedulingPolicy
	if cfg.Tenants != nil {
		scheduling = func(int) core.SchedulingPolicy { return tenants.NewDRF(cfg.Tenants) }
	}
	fed := federation.New(federation.Config{
		Clusters:        clusters,
		Shards:          cfg.Shards,
		ReschedInterval: 1,
		Clock:           clk,
		Recovery:        cfg.Recovery,
		NodeRecovery:    cfg.NodeRecovery,
		FullRecompute:   cfg.FullRecompute,
		Scheduling:      scheduling,
		Metrics: func(int) *metrics.Recorder {
			r := metrics.NewRecorder()
			recs = append(recs, r)
			return r
		},
		Obs: cfg.Obs,
	})
	if fed.NumShards() != cfg.Shards {
		return nil, fmt.Errorf("experiments: federation clamped to %d shards", fed.NumShards())
	}
	agg := metrics.NewAggregate(recs...)

	inj := chaos.NewInjector(e, fed, chaos.Plan(cfg.Chaos, cfg.Shards))
	inj.CheckAfterFault = true
	if cfg.Obs != nil {
		inj.SetObs(cfg.Obs)
	}
	inj.Arm()
	inj.ArmNodes(chaos.PlanNodes(cfg.Chaos, clusters))

	// Rebalancing runs as deterministic "rebalance.check" timer events on the
	// shared clock, interleaving with the fault plan; the invariant checker
	// runs after every migration exactly as it does after every fault.
	var rb *federation.Rebalancer
	var migErr error
	if cfg.Rebalance != nil {
		rcfg := *cfg.Rebalance
		userHook := rcfg.OnMigration
		rcfg.OnMigration = func(rep federation.MigrationReport) {
			if userHook != nil {
				userHook(rep)
			}
			if migErr == nil {
				if err := fed.CheckInvariants(); err != nil {
					migErr = fmt.Errorf("after %q: %w", rep.String(), err)
				}
			}
		}
		rb = federation.NewRebalancer(fed, rcfg)
		rb.Start()
		defer rb.Stop()
	}

	if cfg.PSATaskDur > 0 {
		for i := 0; i < totalClusters; i++ {
			p := apps.NewPSA(clk, apps.PSAConfig{
				Cluster: federatedCluster(i), TaskDuration: cfg.PSATaskDur, Metrics: clientRec,
			})
			sess := fed.Connect(p)
			p.SetMetricsID(sess.AppID())
			p.Attach(sess)
		}
	}

	res := &ChaosReplayResult{
		Shards:     cfg.Shards,
		Nodes:      totalClusters * cfg.NodesPerShard,
		Policy:     cfg.Recovery,
		NodePolicy: cfg.NodeRecovery,
	}
	remaining := len(cfg.Jobs)
	var waitSum float64
	settleJob := func(w *chaosRigid, submit float64) func(string) {
		return func(outcome string) {
			switch outcome {
			case "completed":
				res.Completed++
				wait := w.StartTime - submit
				if wait < 0 {
					wait = 0
				}
				waitSum += wait
				if wait > res.MaxWait {
					res.MaxWait = wait
				}
			case "killed":
				res.Killed++
			case "rejected":
				res.Rejected++
			}
			res.LostWork += w.LostWork
			res.Resubmits += w.Resubmits
			remaining--
			if remaining == 0 {
				e.Stop()
			}
		}
	}

	for i, j := range cfg.Jobs {
		i, j := i, j
		// Deterministic skew: the configured fraction of the trace cycles
		// over shard 0's initial clusters (indices ≡ 0 mod Shards), the rest
		// over the whole cluster set.
		var cluster int
		if cfg.HotJobFraction > 0 && float64(i%100) < cfg.HotJobFraction*100 {
			cluster = (i % cfg.ClustersPerShard) * cfg.Shards
		} else {
			cluster = i % totalClusters
		}
		n := j.Nodes
		if n > cfg.NodesPerShard {
			n = cfg.NodesPerShard
		}
		e.At(j.Submit, "chaos.submit", func() {
			r := apps.NewRigid(clk, federatedCluster(cluster), n, j.Runtime)
			w := &chaosRigid{Rigid: r}
			w.settle = settleJob(w, j.Submit)
			var copts []rms.ConnectOption
			if cfg.Tenants != nil && cfg.TenantOf != nil {
				copts = append(copts, rms.WithTenant(cfg.TenantOf(i)))
			}
			// Completion settles on the forwarded OnRequestFinished event,
			// not the app's own end timer — the server-side finish is the
			// only signal that survives crash/requeue re-runs correctly.
			sess := fed.Connect(w, copts...)
			r.Attach(sess)
			if err := r.Submit(); err != nil {
				// KillOnCrash: the target shard is down; the submission is
				// refused rather than queued.
				sess.Disconnect()
				w.settleOnce("rejected")
				return
			}
			if cfg.GangFraction > 0 && totalClusters > 1 && float64(i%100) < cfg.GangFraction*100 {
				// Gang companion: a related request on the next cluster —
				// under the round-robin partition, the next shard. The rigid
				// job filters foreign IDs, so the companion rides the same
				// session; it self-finishes when its ¬P duration runs out.
				// A refused companion (its shard down under KillOnCrash)
				// leaves the job itself intact.
				how := request.Next
				if i%2 == 1 {
					how = request.Coalloc
				}
				_, _ = sess.Request(rms.RequestSpec{
					Cluster:    federatedCluster((cluster + 1) % totalClusters),
					N:          n,
					Duration:   j.Runtime,
					Type:       request.NonPreempt,
					RelatedHow: how,
					RelatedTo:  r.RequestID(),
				})
			}
		})
	}

	for remaining > 0 {
		before := e.Processed()
		e.Run(e.Now() + 3600)
		if remaining == 0 {
			break
		}
		if e.Now() > cfg.MaxSimTime {
			return nil, fmt.Errorf("experiments: chaos replay exceeded %g s (remaining=%d)", cfg.MaxSimTime, remaining)
		}
		// An event-free window is just an idle gap while events are still
		// queued (sparse traces can have inter-arrival gaps over an hour); a
		// deadlock is jobs remaining with nothing queued at all. Run drains
		// cancelled events even past the horizon, so Pending()==0 is exact.
		if e.Processed() == before && e.Pending() == 0 {
			return nil, fmt.Errorf("experiments: chaos replay stalled at t=%g (remaining=%d)", e.Now(), remaining)
		}
	}

	if err := inj.InvariantErr(); err != nil {
		return nil, fmt.Errorf("experiments: chaos invariant violated %w", err)
	}
	if migErr != nil {
		return nil, fmt.Errorf("experiments: migration invariant violated %w", migErr)
	}
	if err := fed.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: post-run invariant violated: %w", err)
	}

	res.Crashes = inj.Crashes()
	res.Restarts = inj.Restarts()
	res.NodeFails = inj.NodeFails()
	res.NodeRecovers = inj.NodeRecovers()
	res.Trace = inj.Trace()
	if rb != nil {
		res.Migrations = rb.Migrations()
		res.MigratedRequests = rb.MovedRequests()
		res.MigrationTrace = rb.Trace()
	}
	res.ShardChurn = make([]int64, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		for _, l := range fed.Shard(i).ClusterLoads() {
			res.ShardChurn[i] += l.Churn
		}
	}
	rs := fed.RecoveryStats()
	res.KilledSessions = int(rs.KilledSessions)
	res.RequeuedRequests = int(rs.RequeuedRequests)
	res.ReplayedRequests = int(rs.ReplayedRequests)
	res.DroppedRequests = int(rs.DroppedRequests)
	res.GangsCommitted = int(rs.GangsCommitted)
	res.GangsAborted = int(rs.GangsAborted)
	res.GangsRetried = int(rs.GangsRetried)
	for i := 0; i < cfg.Shards; i++ {
		st := fed.Shard(i).Stats()
		res.NodeKilled += int(st.NodeKilledRequests)
		res.NodeRequeued += int(st.NodeRequeuedRequests)
		res.NodeReduced += int(st.NodeReducedRequests)
	}
	if cfg.Tenants != nil {
		res.TenantPreempts = fed.TenantPreempts()
	}
	res.Makespan = e.Now()
	res.Events = e.Processed()
	res.EventHash = hash
	if res.Completed > 0 {
		res.MeanWait = waitSum / float64(res.Completed)
	}
	res.TotalArea = agg.TotalArea(res.Makespan)
	res.TotalWaste = agg.TotalWaste()
	res.UsedFraction = agg.UsedFraction(res.Nodes, res.Makespan)
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot(res.Makespan)
		res.Snapshot = &snap
	}
	return res, nil
}
