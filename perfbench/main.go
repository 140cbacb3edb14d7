// Command perfbench is the repository's end-to-end benchmark: a 4-shard
// federation on the real clock behind a TCP transport server on loopback,
// driven by two in-process TCP clients with the production resilience
// options. See README.md for the workloads, the metrics and how to read a
// traced run.
//
//	go run . --workload fanout --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correctness, the
// attempted and failed operation counts and the metrics (end-to-end ones
// with --trace 0, per-layer ones with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A pass interleaves `blocks` open+closed block pairs, so that slow
// stretches of a shared machine hit both phases alike; openShare of
// --seconds goes to the open blocks, the rest to the closed ones.
const (
	blocks    = 5
	openShare = 0.5
	// setups is how many set-ups a run measures for setup_s; the last one
	// is kept for the phases.
	setups = 21
)

type config struct {
	w       workload
	seed    int64
	seconds float64
	out     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fanout, backlog-drf or rpc")
	seed := fs.Int64("seed", 1, "seed of arrival times and cluster rotation")
	seconds := fs.Float64("seconds", 20, "measured seconds (open then closed phase)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory of trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, out: *out}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		w.name, cfg.seed, cfg.seconds, *trace, runtime.GOMAXPROCS(0))

	var res result
	if *trace == 1 {
		res, err = tracedRun(cfg, stdout)
	} else {
		var p *pass
		p, err = runPass(cfg, false, setups)
		if err == nil {
			res = p.result(p.e2e())
			p.report(stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r result) json() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = val{x.value, x.unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m}
}

// pass is one set-up workload driven through both phases.
type pass struct {
	cfg            config
	in             *instance
	setupCPU       []float64 // process CPU seconds per set-up
	setupWall      []float64 // wall seconds per set-up
	heap           float64   // MiB live after the kept set-up
	open, closed   *tally
	cost           cost      // process costs of the closed blocks
	rates          []float64 // cycles per second of each closed block
	led            ledger    // per-layer counters of the closed blocks (traced only)
	passStart      time.Time // first open block
	passEnd        time.Time // last closed block
	checks         []check
	openD, closedD time.Duration
}

// runPass sets the workload up n times (keeping the last), then
// runs the interleaved open and closed blocks and the end-of-run checks.
func runPass(cfg config, traced bool, n int) (*pass, error) {
	p := &pass{cfg: cfg, open: &tally{}, closed: &tally{}}
	for k := 0; k < n; k++ {
		if p.in != nil {
			p.in.close()
			p.in = nil
			runtime.GC()
		}
		m0 := takeMark()
		in, err := build(cfg.w, cfg.seed, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		m1 := takeMark()
		p.setupCPU = append(p.setupCPU, (m1.cpu - m0.cpu).Seconds())
		p.setupWall = append(p.setupWall, m1.at.Sub(m0.at).Seconds())
		p.in = in
	}
	p.heap = heapMB()
	p.openD = time.Duration(cfg.seconds * openShare * float64(time.Second))
	p.closedD = time.Duration(cfg.seconds*float64(time.Second)) - p.openD
	l := newLoad(cfg.seed)
	p.passStart = time.Now()
	for b := 0; b < blocks; b++ {
		p.in.openPhase(l, p.openD/blocks, p.open)
		var s0 snapshot
		if traced {
			s0 = p.in.snapshot()
		}
		m0, n0 := takeMark(), len(p.closed.cycles)
		p.in.closedPhase(l, p.closedD/blocks, p.closed)
		m1 := takeMark()
		p.cost.add(m0, m1)
		p.rates = append(p.rates, float64(len(p.closed.cycles)-n0)/m1.at.Sub(m0.at).Seconds())
		if traced {
			p.led.add(s0, p.in.snapshot())
		}
	}
	p.passEnd = time.Now()
	p.checks = p.in.checks()
	p.in.close()
	return p, nil
}

// ops is the number of cycles the closed blocks completed.
func (p *pass) ops() float64 { return float64(len(p.closed.cycles)) }

// e2e returns the gated end-to-end metrics: set-up and the costs per
// closed-phase cycle, all in process CPU time, which a shared host's
// steal time does not move, and the heap.
func (p *pass) e2e() []metric {
	ops := p.ops()
	return []metric{
		{"setup_s", quantile(p.setupCPU, 0.5), "s", fmt.Sprintf("getrusage user+sys, median of %d set-ups %v", len(p.setupCPU), roundAll(p.setupCPU))},
		{"cpu_ms_per_op", ratio(ms(p.cost.cpu), ops), "ms", "getrusage user+sys, closed blocks"},
		{"alloc_kb_per_op", ratio(float64(p.cost.alloc)/1024, ops), "KiB", "Go heap allocation, closed blocks, in-process clients included"},
		{"heap_mb", p.heap, "MiB", "live heap after set-up"},
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// result counts every cycle of both phases and every end-of-run check.
func (p *pass) result(metrics []metric) result {
	r := result{metrics: metrics}
	r.attempted = p.open.attempted + p.closed.attempted + len(p.checks)
	r.failed = p.open.failed + p.closed.failed
	for _, c := range p.checks {
		if c.err != nil {
			r.failed++
		}
	}
	r.correct = r.failed == 0
	return r
}

// ungated returns the metrics printed but not gated: wall-clock set-up,
// throughput and latencies spread too much from run to run on a shared
// host (see README.md). Throughput is the median of the closed blocks, so
// a slow stretch covering less than half the run does not move it. Only
// fanout and backlog-drf have starts (due time → start notification at
// the client).
func (p *pass) ungated() []metric {
	out := []metric{
		{"setup_wall_s", quantile(p.setupWall, 0.5), "s", fmt.Sprintf("median of %d set-ups %v", len(p.setupWall), roundAll(p.setupWall))},
		{"ops_per_s", quantile(p.rates, 0.5), "1/s",
			fmt.Sprintf("median of %d closed blocks %v, %d clients", blocks, roundAll(p.rates), nClients)},
	}
	n := fmt.Sprintf("n=%d", len(p.open.ack))
	pct := func(name string, xs []float64, q float64) {
		out = append(out, metric{name, quantile(xs, q), "ms", n})
	}
	pct("ack_p50_ms", p.open.ack, 0.5)
	pct("ack_p90_ms", p.open.ack, 0.9)
	pct("ack_p99_ms", p.open.ack, 0.99)
	pct("cycle_p50_ms", p.open.cycles, 0.5)
	pct("cycle_p90_ms", p.open.cycles, 0.9)
	pct("cycle_p99_ms", p.open.cycles, 0.99)
	if p.cfg.w.starts {
		pct("start_p50_ms", p.open.start, 0.5)
		pct("start_p90_ms", p.open.start, 0.9)
		pct("start_p99_ms", p.open.start, 0.99)
	}
	return out
}

// report prints the pass's metrics, failures and checks.
func (p *pass) report(w io.Writer) {
	fmt.Fprintf(w, "%d blocks: open %.1f s in all at %g/s (%d arrivals), closed %.1f s in all\n",
		blocks, p.openD.Seconds(), p.cfg.w.rate, len(p.open.late), p.closedD.Seconds())
	for _, m := range p.e2e() {
		fmt.Fprintf(w, "  %-16s %12.4f %-4s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range p.ungated() {
		fmt.Fprintf(w, "  %-16s %12.4f %-4s %s, not gated\n", m.name, m.value, m.unit, m.note)
	}
	r := p.result(nil)
	fmt.Fprintf(w, "  %-16s %12.4f      %d failed of %d attempted (cycles of both phases + checks)\n",
		"error_ratio", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, t := range []*tally{p.open, p.closed} {
		for _, e := range t.errs {
			fmt.Fprintf(w, "  FAILED cycle: %s\n", e)
		}
	}
	for _, c := range p.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(w, "  check %-28s %s\n", c.name, status)
	}
}

// tracedRun runs the workload untraced, then again with the tracing
// wrappers, each for half of --seconds. It reports the traced pass's
// per-layer metrics and the tracing overhead: traced minus untraced
// end-to-end numbers.
func tracedRun(cfg config, w io.Writer) (result, error) {
	half := cfg
	half.seconds /= 2
	ref, err := runPass(half, false, 1)
	if err != nil {
		return result{}, fmt.Errorf("untraced pass: %w", err)
	}
	fmt.Fprintln(w, "untraced pass:")
	ref.report(w)
	re, rr := append(ref.e2e(), ref.ungated()...), ref.result(nil)
	ref = nil // the traced pass's heap and GC must not carry the untraced one
	runtime.GC()
	tp, err := runPass(half, true, 1)
	if err != nil {
		return result{}, fmt.Errorf("traced pass: %w", err)
	}
	fmt.Fprintln(w, "traced pass:")
	tp.report(w)
	fmt.Fprintln(w, "tracing overhead (traced − untraced):")
	te := append(tp.e2e(), tp.ungated()...)
	for i := range re {
		fmt.Fprintf(w, "  %-16s %+12.4f %-4s (%+.1f%%)\n", re[i].name, te[i].value-re[i].value, re[i].unit,
			100*ratio(te[i].value-re[i].value, re[i].value))
	}
	stats, spans, parent := tp.in.tr.analyze(tp.passStart, tp.passEnd)
	layers, err := tp.layers(stats)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, "spans of the traced pass (µs; self = duration − child spans):")
	summary := summarize(stats)
	for k := spanKind(0); k < nKinds; k++ {
		if s, ok := summary[kindNames[k]]; ok {
			fmt.Fprintf(w, "  %-18s n=%-7d p50 %10.1f  p99 %10.1f  self p50 %10.1f  self total %10.1f ms\n",
				kindNames[k], s.Count, s.P50US, s.P99US, s.SelfP50US, s.SelfSumMS)
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := writeTrace(path, spans, parent, summary); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	fmt.Fprintln(w, "per-layer metrics (counters per closed-block cycle; span and histogram quantiles over the traced pass):")
	for _, m := range layers {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	r := tp.result(layers)
	r.attempted += rr.attempted
	r.failed += rr.failed
	r.correct = r.failed == 0
	return r, nil
}

// layers derives the per-layer metrics of a traced pass from its ledger
// and its span stats.
func (p *pass) layers(stats [nKinds]kindStats) ([]metric, error) {
	ops := p.ops()
	encUS, decUS, frameKB, err := codecCost(p.in.tr.sampledViews())
	if err != nil {
		return nil, fmt.Errorf("codec timing: %w", err)
	}
	led := &p.led
	d := func(k string) float64 { return float64(led.sched[k]) }
	rounds := d("rounds")
	round, wait := mergedHist(p.in.reg, hRound).Stat(), mergedHist(p.in.reg, hWait).Stat()
	dirty, clean := float64(led.mergeDirty), float64(led.mergeClean)
	us := func(k spanKind, q float64, self bool) float64 {
		if self {
			return quantile(stats[k].self, q)
		}
		return quantile(stats[k].dur, q)
	}
	return []metric{
		{name: "loadgen.late_p99_ms", value: quantile(p.open.late, 0.99), unit: "ms"},
		{name: "loadgen.samples", value: float64(len(p.open.late)), unit: "count"},
		{name: "transport.rtt_p50_us", value: us(spReq, 0.5, true), unit: "us"},
		{name: "transport.views_encode_p50_us", value: us(spViews, 0.5, false), unit: "us"},
		{name: "transport.view_frames_per_op", value: ratio(float64(led.clientViews), ops), unit: "count"},
		{name: "proto.view_frame_kb", value: frameKB, unit: "KiB"},
		{name: "proto.encode_view_us", value: encUS, unit: "us"},
		{name: "proto.decode_view_us", value: decUS, unit: "us"},
		{name: "fed.request_p50_us", value: us(spFedRequest, 0.5, false), unit: "us"},
		{name: "fed.request_p99_us", value: us(spFedRequest, 0.99, false), unit: "us"},
		{name: "fed.done_p50_us", value: us(spFedDone, 0.5, false), unit: "us"},
		{name: "fed.merge_dirty_per_op", value: ratio(dirty, ops), unit: "count"},
		{name: "fed.merge_hit_ratio", value: ratio(clean, dirty+clean), unit: "ratio"},
		{name: "fed.merge_ms_per_op", value: ratio(led.mergeSec*1e3, ops), unit: "ms"},
		{name: "rms.rounds_per_op", value: ratio(rounds, ops), unit: "count"},
		{name: "rms.round_p50_ms", value: round.P50 * 1e3, unit: "ms"},
		{name: "rms.round_p99_ms", value: round.P99 * 1e3, unit: "ms"},
		{name: "rms.round_ms_per_op", value: ratio(led.roundSec*1e3, ops), unit: "ms"},
		{name: "rms.wait_p50_ms", value: wait.P50 * 1e3, unit: "ms"},
		{name: "rms.wait_p99_ms", value: wait.P99 * 1e3, unit: "ms"},
		{name: "core.full_round_ratio", value: ratio(d("full_rounds"), rounds), unit: "ratio"},
		{name: "core.cbf_recomputed_per_round", value: ratio(d("cbf_recomputed"), rounds), unit: "count"},
		{name: "core.cbf_reuse_ratio", value: ratio(d("cbf_reused"), d("cbf_reused")+d("cbf_recomputed")), unit: "ratio"},
		{name: "core.walks_recomputed_per_round", value: ratio(d("walks_recomputed"), rounds), unit: "count"},
		{name: "core.artifacts_recomputed_per_round", value: ratio(d("artifacts_recomputed"), rounds), unit: "count"},
		{name: "tenants.preempts_per_op", value: ratio(float64(led.preempts), ops), unit: "count"},
		{name: "tenants.t0_wait_p50_ms", value: mergedHist(p.in.reg, hT0Wait).Stat().P50 * 1e3, unit: "ms"},
		{name: "app.view_pushes_per_op", value: ratio(float64(led.fleetViews), ops), unit: "count"},
		{name: "runtime.cpu_util", value: ratio(p.cost.cpu.Seconds(), p.cost.wall.Seconds()), unit: "cores"},
		{name: "runtime.gc_per_op", value: ratio(float64(p.cost.numGC), ops), unit: "count"},
	}, nil
}
