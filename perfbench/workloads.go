package main

import (
	"fmt"
	"math"

	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/tenants"
	"coormv2/internal/view"
)

// Federation shape shared by every workload.
const (
	nClusters = 32
	nodesPer  = 256
	nShards   = 4
	nClients  = 2
	// blockLen is how many consecutive churn cycles of one client target
	// the same cluster before the seeded rotation moves on.
	blockLen = 8
	// churnDuration keeps churn jobs running until their done(): it is far
	// longer than any run.
	churnDuration = 1e6
)

// workload is one traffic mix. The churn it drives is always 1-node
// NonPreempt request() → start → done() cycles; what differs is the
// standing fleet the churn competes with and the scheduling policy.
type workload struct {
	name     string
	interval float64 // per-shard re-scheduling interval, seconds
	rate     float64 // open-phase arrivals per second
	// starts: churn requests start. rpc's never do (no round runs), and
	// each of its clients is pinned to one cluster instead.
	starts bool
	// tenant of the churn clients; set only on the DRF workload, whose
	// shards run DRF over a tenant tree.
	tenant string
	// fleet admits the standing fleet in-process and returns how many of
	// its requests start on their own; settle waits for that many starts.
	fleet func(fed *federation.Federator, cids []view.ClusterID, h rms.AppHandler, started func() int64) (startable int, err error)
}

var workloads = []workload{
	{name: "fanout", interval: 0.002, rate: 40, starts: true, fleet: fanoutFleet},
	{name: "backlog-drf", interval: 0.002, rate: 80, starts: true, tenant: "t0", fleet: backlogFleet},
	{name: "rpc", interval: 3600, rate: 2000},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clusterIDs names the clusters c00..c31: two-digit names sort in index
// order, so federation.Partition gives cluster i to shard i%nShards.
func clusterIDs() ([]view.ClusterID, map[view.ClusterID]int) {
	cids := make([]view.ClusterID, nClusters)
	sizes := make(map[view.ClusterID]int, nClusters)
	for i := range cids {
		cids[i] = view.ClusterID(fmt.Sprintf("c%02d", i))
		sizes[cids[i]] = nodesPer
	}
	return cids, sizes
}

// schedulingFor returns the per-shard policy factory: nil (FIFO) or DRF
// over t0 (guaranteed half of every cluster) and best-effort t1/t2.
func schedulingFor(w workload, sizes map[view.ClusterID]int) func(int) core.SchedulingPolicy {
	if w.tenant == "" {
		return nil
	}
	tree := tenants.NewTree()
	guarantee := tenants.Resources{}
	for cid, n := range sizes {
		guarantee[cid] = n / 2
	}
	tree.MustAdd("t0", guarantee, nil)
	tree.MustAdd("t1", nil, nil)
	tree.MustAdd("t2", nil, nil)
	return func(int) core.SchedulingPolicy { return tenants.NewDRF(tree) }
}

// fanoutFleet is the BenchmarkFederatedThroughput fleet: 8 applications
// per cluster, each with a PA16, an NP8 co-allocated in it, a pending
// NEXT12 behind the NP8 and a P4 that never ends. Three of the four
// requests start.
func fanoutFleet(fed *federation.Federator, cids []view.ClusterID, h rms.AppHandler, _ func() int64) (int, error) {
	const apps = nClusters * 8
	for i := 0; i < apps; i++ {
		cid := cids[i%nClusters]
		sess := fed.Connect(h)
		pa, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 16, Duration: 1e9 + float64(i)*1013, Type: request.PreAlloc})
		if err != nil {
			return 0, err
		}
		np, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 8, Duration: 1e8 + float64(i)*997, Type: request.NonPreempt,
			RelatedHow: request.Coalloc, RelatedTo: pa})
		if err != nil {
			return 0, err
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 12, Duration: 1e8 + float64(i)*991, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: np}); err != nil {
			return 0, err
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
			return 0, err
		}
	}
	return 3 * apps, nil
}

// backlogFleet gives every cluster one best-effort runner holding 250 of
// its 256 nodes for ~1e8 s and one best-effort batch application queueing
// 64 rigid jobs of 64–191 nodes, which Conservative Back-Filling reserves
// behind the runner. The runners are admitted and started first, so no
// batch job can take a cluster before its runner; only the runners start.
func backlogFleet(fed *federation.Federator, cids []view.ClusterID, h rms.AppHandler, started func() int64) (int, error) {
	const jobsPerCluster = 64
	tenantOf := func(c, k int) string { return fmt.Sprintf("t%d", 1+(c+k)%2) }
	for c, cid := range cids {
		sess := fed.Connect(h, rms.WithTenant(tenantOf(c, 0)))
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: nodesPer - 6, Duration: 1e8 + float64(c)*1013, Type: request.NonPreempt}); err != nil {
			return 0, err
		}
	}
	if err := waitUntil(settleTimeout, func() bool { return started() >= nClusters }); err != nil {
		return 0, fmt.Errorf("runners did not start: %w", err)
	}
	for c, cid := range cids {
		sess := fed.Connect(h, rms.WithTenant(tenantOf(c, 1)))
		for j := 0; j < jobsPerCluster; j++ {
			n := 64 + (c*jobsPerCluster+j)*37%128
			if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: n, Duration: 3600 + float64(j)*61, Type: request.NonPreempt}); err != nil {
				return 0, err
			}
		}
	}
	return nClusters, nil
}
