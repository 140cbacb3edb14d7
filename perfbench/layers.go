package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"coormv2/internal/obs"
	"coormv2/internal/stats"
)

// quantile returns the q-quantile of xs, or 0 when xs is empty: a layer
// that did no work, which JSON could not carry as NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mergedHist folds the per-shard histograms "shard<i>.<suffix>" into one.
func mergedHist(reg *obs.Registry, suffix string) *obs.Histogram {
	h := &obs.Histogram{}
	for i := 0; i < nShards; i++ {
		h.Merge(reg.Hist(fmt.Sprintf("shard%d.%s", i, suffix)))
	}
	return h
}

// Histograms read per layer, merged over the shards: rms round and
// admit→start wait, and the t0 tenant's wait. Their quantiles cover the
// traced pass's whole life, its set-up included.
const (
	hRound  = "rms.round_seconds"
	hWait   = "rms.wait_seconds"
	hT0Wait = "tenant.t0.wait_seconds"
)

// snapshot is every cumulative per-layer counter the benchmark reads,
// taken at a block boundary.
type snapshot struct {
	sched                  map[string]int64 // core.SchedStats summed over shards
	mergeDirty, mergeClean int64
	mergeSec               float64
	roundSec               float64
	preempts               int64
	fleetViews             int64
	clientViews            int64
}

func (in *instance) snapshot() snapshot {
	s := snapshot{sched: make(map[string]int64)}
	for i := 0; i < in.fed.NumShards(); i++ {
		for k, v := range in.fed.Shard(i).SchedStats().Map() {
			s.sched[k] += v
		}
	}
	s.mergeDirty, s.mergeClean = in.fed.MergeStats()
	s.mergeSec = in.reg.Hist("fed.merge_seconds").Stat().Sum
	s.roundSec = mergedHist(in.reg, hRound).Stat().Sum
	for _, n := range in.fed.TenantPreempts() {
		s.preempts += n
	}
	s.fleetViews = in.fleet.views.Load()
	for _, c := range in.clients {
		s.clientViews += c.box.views.Load()
	}
	return s
}

// ledger sums the per-layer counters over the closed blocks of a pass.
type ledger struct {
	sched                  map[string]int64
	mergeDirty, mergeClean int64
	mergeSec, roundSec     float64
	preempts               int64
	fleetViews             int64
	clientViews            int64
}

func (l *ledger) add(a, b snapshot) {
	if l.sched == nil {
		l.sched = make(map[string]int64)
	}
	for k, v := range b.sched {
		l.sched[k] += v - a.sched[k]
	}
	l.mergeDirty += b.mergeDirty - a.mergeDirty
	l.mergeClean += b.mergeClean - a.mergeClean
	l.mergeSec += b.mergeSec - a.mergeSec
	l.roundSec += b.roundSec - a.roundSec
	l.preempts += b.preempts - a.preempts
	l.fleetViews += b.fleetViews - a.fleetViews
	l.clientViews += b.clientViews - a.clientViews
}

// mark is the process-wide cost so far: wall time, CPU, bytes allocated
// and collections.
type mark struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	numGC uint32
}

// cost sums process costs over the closed blocks of a pass.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
	numGC     uint32
}

func (c *cost) add(a, b mark) {
	c.wall += b.at.Sub(a.at)
	c.cpu += b.cpu - a.cpu
	c.alloc += b.alloc - a.alloc
	c.numGC += b.numGC - a.numGC
}

func takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB collects garbage and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
