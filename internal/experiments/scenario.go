// Package experiments reproduces the paper's evaluation (§5): every figure
// with quantitative content has a runner that regenerates its data from the
// discrete-event simulation. README.md ("Figure pipeline") shows how to run
// them.
package experiments

import (
	"fmt"
	"math"

	"coormv2/internal/amr"
	"coormv2/internal/apps"
	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/stats"
	"coormv2/internal/view"
)

// Cluster is the single large homogeneous cluster of the resource model
// (§5.1.3).
const Cluster = view.ClusterID("cluster")

// ScenarioConfig describes one simulated run: one AMR application plus any
// number of PSAs on one cluster.
type ScenarioConfig struct {
	// Seed drives the AMR profile generation.
	Seed int64
	// Steps is the AMR profile length (1000 in the paper; tests use less).
	Steps int
	// Smax is the AMR peak working-set size in MiB.
	Smax float64
	// TargetEff is the AMR's target efficiency (0.75 in the paper).
	TargetEff float64
	// Overcommit is the ratio between the user's pre-allocation guess and
	// the equivalent static allocation n_eq (§5.1.1).
	Overcommit float64
	// Mode selects the AMR behaviour: dynamic (CooRMv2) or static baseline.
	Mode apps.NEAMode
	// AnnounceInterval switches the AMR to announced updates (§5.3).
	AnnounceInterval float64
	// PSATaskDurations adds one PSA per entry with the given d_task.
	PSATaskDurations []float64
	// Policy selects the preemptible division policy (Fig. 11).
	Policy core.PreemptPolicy
	// Nodes overrides the cluster size; 0 sizes it like the paper:
	// "for an overcommit factor of κ, having n = 1400·κ is sufficient" —
	// we use exactly the pre-allocation size ceil(κ·n_eq).
	Nodes int
	// PSAHook, when set, customizes each PSA right after creation
	// (diagnostics, test instrumentation).
	PSAHook func(index int, p *apps.PSA)
	// MaxSimTime aborts runaway simulations (default 10^7 s).
	MaxSimTime float64
	// Shards, when positive, runs the scenario through a
	// federation.Federator with that many shards instead of a single
	// rms.Server. The scenario has one cluster, so the federation clamps to
	// one shard — the point is exercising the whole routing/merging layer:
	// a 1-shard federation must reproduce the single-RMS run byte-for-byte
	// (see the differential test).
	Shards int
}

// session is the server-side handle the harness needs; both *rms.Session
// and *federation.Session satisfy it.
type session interface {
	AppID() int
	Request(spec rms.RequestSpec) (request.ID, error)
	Done(id request.ID, released []int) error
	Disconnect()
}

// metricsReader is the read surface shared by *metrics.Recorder and
// *metrics.Aggregate.
type metricsReader interface {
	Area(appID int, t float64) float64
	PreAllocArea(appID int, t float64) float64
	UsedFraction(capacity int, horizon float64) float64
}

// buildRMS wires either a single rms.Server or a Federator over the given
// clusters. rec is the client-side recorder handed to applications (PSA
// waste); the returned reader aggregates it with the per-shard recorders.
func buildRMS(shards int, clusters map[view.ClusterID]int, interval float64, clk clock.Clock, policy core.PreemptPolicy, rec *metrics.Recorder) (connect func(rms.AppHandler) session, reader metricsReader) {
	if shards <= 0 {
		srv := rms.NewServer(rms.Config{
			Clusters:        clusters,
			ReschedInterval: interval,
			Clock:           clk,
			Policy:          policy,
			Metrics:         rec,
		})
		return func(h rms.AppHandler) session { return srv.Connect(h) }, rec
	}
	shardRecs := []*metrics.Recorder{rec}
	fed := federation.New(federation.Config{
		Clusters:        clusters,
		Shards:          shards,
		ReschedInterval: interval,
		Clock:           clk,
		Policy:          policy,
		Metrics: func(int) *metrics.Recorder {
			r := metrics.NewRecorder()
			shardRecs = append(shardRecs, r)
			return r
		},
	})
	return func(h rms.AppHandler) session { return fed.Connect(h) },
		metrics.NewAggregate(shardRecs...)
}

// ScenarioResult aggregates the §5 metrics of one run.
type ScenarioResult struct {
	Nodes int
	Neq   int // equivalent static allocation of the generated profile

	AMRArea    float64 // node·s effectively allocated to the AMR
	AMRRuntime float64 // AMR end-time minus start-time
	// AMRPreAllocArea is the node·s the AMR kept reserved (pre-allocated),
	// the basis of the §7 accounting extension.
	AMRPreAllocArea float64

	PSAArea  []float64 // node·s allocated per PSA
	PSAWaste []float64 // node·s wasted per PSA (killed tasks)

	// UsedFraction is the §5.3 metric over the AMR's makespan:
	// (allocated − waste) / (nodes × makespan).
	UsedFraction float64
	Makespan     float64

	Events int64 // simulator events processed (diagnostics)
}

// RunScenario builds the simulation, runs it until the AMR finishes and
// returns the metrics.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = amr.ProfileSteps
	}
	if cfg.Smax <= 0 {
		cfg.Smax = amr.DefaultSmax
	}
	if cfg.TargetEff <= 0 {
		cfg.TargetEff = 0.75
	}
	if cfg.Overcommit <= 0 {
		cfg.Overcommit = 1
	}
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = 1e7
	}

	params := amr.DefaultParams
	profile := amr.GenerateProfile(stats.NewRand(cfg.Seed), cfg.Steps, cfg.Smax)
	neq, _ := params.EquivalentStatic(profile, cfg.TargetEff)
	pre := int(math.Ceil(cfg.Overcommit * float64(neq)))
	if pre < 1 {
		pre = 1
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = pre
	}
	if nodes < pre {
		return nil, fmt.Errorf("experiments: %d nodes cannot hold a %d-node pre-allocation", nodes, pre)
	}

	e := sim.NewEngine()
	rec := metrics.NewRecorder()
	// §5.1.3: the re-scheduling interval is "set to 1 second, to obtain a
	// very reactive system".
	connect, reader := buildRMS(cfg.Shards, map[view.ClusterID]int{Cluster: nodes},
		1, clock.SimClock{E: e}, cfg.Policy, rec)

	nea := apps.NewNEA(clock.SimClock{E: e}, apps.NEAConfig{
		Cluster: Cluster, Profile: profile, Params: params,
		TargetEff: cfg.TargetEff, PreAllocN: pre, Mode: cfg.Mode,
		AnnounceInterval: cfg.AnnounceInterval,
	})
	// Freeze the clock at the makespan so every metric is evaluated over
	// exactly the AMR's run, as in §5.
	nea.OnFinish = e.Stop
	neaSess := connect(nea)
	nea.Attach(neaSess)
	if err := nea.Submit(); err != nil {
		return nil, err
	}

	psas := make([]*apps.PSA, 0, len(cfg.PSATaskDurations))
	psaIDs := make([]int, 0, len(cfg.PSATaskDurations))
	for i, d := range cfg.PSATaskDurations {
		p := apps.NewPSA(clock.SimClock{E: e}, apps.PSAConfig{
			Cluster: Cluster, TaskDuration: d, Metrics: rec,
		})
		if cfg.PSAHook != nil {
			cfg.PSAHook(i, p)
		}
		sess := connect(p)
		p.SetMetricsID(sess.AppID())
		p.Attach(sess)
		psas = append(psas, p)
		psaIDs = append(psaIDs, sess.AppID())
	}

	// Run until the AMR finishes (chunked so we can detect stalls).
	for !nea.Finished() {
		if nea.Err != nil {
			return nil, fmt.Errorf("experiments: NEA error: %w", nea.Err)
		}
		if killed, why := nea.Killed(); killed {
			return nil, fmt.Errorf("experiments: NEA killed: %s", why)
		}
		if e.Now() > cfg.MaxSimTime {
			return nil, fmt.Errorf("experiments: simulation exceeded %g s at step %d", cfg.MaxSimTime, nea.Step())
		}
		before := e.Processed()
		e.Run(e.Now() + 3600)
		if e.Processed() == before && !nea.Finished() {
			return nil, fmt.Errorf("experiments: simulation stalled at t=%g, step %d", e.Now(), nea.Step())
		}
	}
	for _, p := range psas {
		if p.Err != nil {
			return nil, fmt.Errorf("experiments: PSA error: %w", p.Err)
		}
		if killed, why := p.Killed(); killed {
			return nil, fmt.Errorf("experiments: PSA killed: %s", why)
		}
	}

	makespan := nea.EndTime
	res := &ScenarioResult{
		Nodes:           nodes,
		Neq:             neq,
		AMRArea:         reader.Area(neaSess.AppID(), makespan),
		AMRRuntime:      nea.EndTime - nea.StartTime,
		AMRPreAllocArea: reader.PreAllocArea(neaSess.AppID(), makespan),
		Makespan:        makespan,
		Events:          e.Processed(),
	}
	for i, p := range psas {
		res.PSAArea = append(res.PSAArea, reader.Area(psaIDs[i], makespan))
		res.PSAWaste = append(res.PSAWaste, p.Waste())
	}
	res.UsedFraction = reader.UsedFraction(nodes, makespan)
	return res, nil
}
