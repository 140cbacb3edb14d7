// Command coormd runs a CooRMv2 RMS daemon over TCP — the "real-life
// prototype RMS" counterpart of the simulator (§5). Applications connect
// with the newline-delimited JSON protocol of internal/proto (see
// cmd/coormctl and examples/netdemo).
//
// Usage:
//
//	coormd -listen :7777 -cluster main=128 -cluster gpu=16 -interval 1
//	coormd -cluster a=64 -cluster b=64 -cluster c=64 -shards 3 -workers 32
//	coormd -cluster a=64 -pprof 127.0.0.1:6060   # live profiling side listener
//
// With -shards > 1 the daemon runs a federated RMS: the cluster set is
// partitioned across that many independent scheduler shards and every
// session's requests are routed to the shard owning their target cluster
// (see internal/federation).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// clusterFlags collects repeated -cluster name=nodes flags.
type clusterFlags map[view.ClusterID]int

func (c clusterFlags) String() string {
	var parts []string
	for cid, n := range c {
		parts = append(parts, fmt.Sprintf("%s=%d", cid, n))
	}
	return strings.Join(parts, ",")
}

func (c clusterFlags) Set(s string) error {
	name, nodesStr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=nodes, got %q", s)
	}
	n, err := strconv.Atoi(nodesStr)
	if err != nil || n <= 0 {
		return fmt.Errorf("invalid node count in %q", s)
	}
	c[view.ClusterID(name)] = n
	return nil
}

func main() {
	clusters := clusterFlags{}
	var (
		listen   = flag.String("listen", "127.0.0.1:7777", "TCP listen address")
		interval = flag.Float64("interval", 1, "re-scheduling interval in seconds (§3.2)")
		grace    = flag.Float64("grace", 0, "preemption grace period in seconds (0 = 5×interval)")
		strict   = flag.Bool("strict", false, "use strict equi-partitioning instead of filling")
		shards   = flag.Int("shards", 1, "scheduler shards; >1 federates the cluster set across independent schedulers")
		workers  = flag.Int("workers", 0, "admission limit: max concurrently served application sessions; further connections wait unserved until one ends (0 = unlimited)")
		pprofOn  = flag.String("pprof", "", "side listener for net/http/pprof (e.g. 127.0.0.1:6060; empty = off), so scheduling hot paths can be profiled against the live daemon")
		graceWin = flag.Duration("grace-window", 15*time.Second, "how long a session whose connection dropped survives awaiting a resume (0 = tear down immediately, no resume)")
		writeQ   = flag.Int("write-queue", 0, "per-connection outbound frame queue; a client that falls this many frames behind is evicted into the grace window (0 = default 256)")
		maxFrame = flag.Int("max-frame", 0, "received frame size cap in bytes; oversized frames are skipped and reported as structured errors (0 = default 4 MiB)")
	)
	flag.Var(clusters, "cluster", "cluster as name=nodes (repeatable)")
	flag.Parse()

	if len(clusters) == 0 {
		clusters["default"] = 64
	}
	clk := clock.NewRealClock()
	reg := obs.NewRegistry()
	if *pprofOn != "" {
		// net/http/pprof registers its handlers on the default mux; serve
		// it on a dedicated side listener so profiling endpoints are never
		// exposed on the RMS protocol port. The observability endpoints
		// share the listener: /metrics (Prometheus text) and /debug/obs
		// (JSON snapshot + structured event ring).
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.Snapshot(clk.Now()).WritePrometheus(w); err != nil {
				log.Printf("coormd: /metrics: %v", err)
			}
		})
		http.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
			js, err := reg.Snapshot(clk.Now()).JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(js)
		})
		go func() {
			log.Printf("coormd: pprof/obs listening on http://%s/debug/pprof/ /metrics /debug/obs", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				log.Printf("coormd: pprof listener failed: %v", err)
			}
		}()
	}
	policy := core.EquiPartitionFilling
	if *strict {
		policy = core.StrictEquiPartition
	}
	var d *transport.Server
	topology := clusters.String()
	if *shards > 1 {
		fed := federation.New(federation.Config{
			Clusters:        clusters,
			Shards:          *shards,
			ReschedInterval: *interval,
			GracePeriod:     *grace,
			Clock:           clk,
			Policy:          policy,
			Obs:             reg,
		})
		d = transport.NewFederatedServer(fed)
		var shardDesc []string
		for i := 0; i < fed.NumShards(); i++ {
			shardDesc = append(shardDesc, fmt.Sprintf("shard%d=%s",
				i, clusterFlags(fed.Shard(i).Scheduler().Clusters()).String()))
		}
		topology = strings.Join(shardDesc, " ")
	} else {
		srv := rms.NewServer(rms.Config{
			Clusters:        clusters,
			ReschedInterval: *interval,
			GracePeriod:     *grace,
			Clock:           clk,
			Policy:          policy,
			Obs:             reg,
		})
		d = transport.NewServer(srv)
	}
	d.Workers = *workers
	d.Grace = *graceWin
	d.WriteQueue = *writeQ
	d.MaxFrame = *maxFrame
	d.Obs = reg
	addr, err := d.Listen(*listen)
	if err != nil {
		log.Fatalf("coormd: %v", err)
	}
	log.Printf("coormd: serving %s on %s (policy %s, interval %gs, workers %d, grace window %s)",
		topology, addr, policy, *interval, *workers, *graceWin)
	if err := d.Serve(); err != nil {
		log.Printf("coormd: %v", err)
		os.Exit(1)
	}
}
