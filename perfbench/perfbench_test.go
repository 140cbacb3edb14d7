package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"coormv2/internal/view"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type runOutput struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

// runCLI runs the command in-process and returns its human-readable
// lines and its parsed result line.
func runCLI(t *testing.T, args ...string) (string, runOutput) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr.String())
	}
	lines := strings.Split(out, "\n")
	var res runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return strings.Join(lines[:len(lines)-1], "\n"), res
}

// checkMetrics asserts the result carries exactly the wanted metrics with
// their units, and that the human-readable part names each of them.
func checkMetrics(t *testing.T, human string, res runOutput, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, human)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
		if !strings.Contains(human, m.Name) {
			t.Errorf("metric %s not printed", m.Name)
		}
	}
}

// TestSmokeEachWorkload runs every workload briefly: all checks pass and
// every end-to-end metric is printed with its unit.
func TestSmokeEachWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command knows %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			human, res := runCLI(t, "--workload", w.Name, "--seed", "3", "--seconds", "3")
			checkMetrics(t, human, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// TestTracedRunReportsLayers runs the traced mode: every per-layer metric
// is reported with its unit, and so is the tracing overhead.
func TestTracedRunReportsLayers(t *testing.T) {
	spec := loadSpec(t)
	human, res := runCLI(t, "--workload", "backlog-drf", "--seed", "4", "--seconds", "3", "--trace", "1")
	checkMetrics(t, human, res, spec.PerLayer)
	if !strings.Contains(human, "tracing overhead") {
		t.Error("no tracing overhead reported")
	}
}

// TestTracingIsBehaviourNeutral runs the same workload untraced and
// traced and compares what the wrappers must not change: every cycle
// starts exactly once, rounds run, nothing fails. It also checks that the
// spans join: each client call has its backend span as a child.
func TestTracingIsBehaviourNeutral(t *testing.T) {
	w, err := lookupWorkload("fanout")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{w: w, seed: 5, seconds: 2}
	for _, traced := range []bool{false, true} {
		p, err := runPass(cfg, traced, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := p.result(nil)
		if !r.correct {
			t.Fatalf("traced=%v: %d of %d failed: %v %v %v", traced, r.failed, r.attempted, p.checks, p.open.errs, p.closed.errs)
		}
		var starts int
		for _, c := range p.in.clients {
			starts += len(c.box.seen)
		}
		if cycles := p.open.attempted + p.closed.attempted; starts != cycles {
			t.Errorf("traced=%v: %d starts for %d cycles", traced, starts, cycles)
		}
		var rounds int64
		for i := 0; i < p.in.fed.NumShards(); i++ {
			rounds += p.in.fed.Shard(i).SchedStats().Rounds
		}
		if rounds == 0 {
			t.Errorf("traced=%v: no round ran", traced)
		}
		if !traced {
			continue
		}
		stats, spans, parent := p.in.tr.analyze(p.passStart, p.passEnd)
		for i, s := range spans {
			if s.kind == spFedRequest && (parent[i] < 0 || spans[parent[i]].kind != spReq) {
				t.Fatalf("fed.request span %d not joined to its client call", i)
			}
		}
		if n, m := len(stats[spReq].dur), len(stats[spFedRequest].dur); n == 0 || n != m {
			t.Errorf("%d client.request spans, %d fed.request spans", n, m)
		}
	}
}

// TestHeldNodesCatchOverlap feeds two starts of the same node on one
// cluster while the first job still holds it, one start delivered before
// its ack and one after: the second must fail the check. The same node of
// another cluster is fine, and so is a start of it once the first job has
// released it.
func TestHeldNodesCatchOverlap(t *testing.T) {
	held := &heldNodes{byCl: make(map[view.ClusterID]map[int]bool)}
	b := newStartBox(held)
	b.OnStart(1, []int{3}) // before its ack
	if _, err := b.wait(1, "c00"); err != nil {
		t.Fatalf("first start: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := b.wait(2, "c00")
		errc <- err
	}()
	if err := waitUntil(time.Second, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		_, ok := b.waiting[2]
		return ok
	}); err != nil {
		t.Fatal(err)
	}
	b.OnStart(2, []int{3}) // after its ack
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "two running jobs") {
		t.Fatalf("overlapping start: got %v, want a two-running-jobs error", err)
	}
	b.OnStart(4, []int{3})
	if _, err := b.wait(4, "c01"); err != nil {
		t.Fatalf("same node on another cluster: %v", err)
	}
	held.release("c00", []int{3})
	b.OnStart(3, []int{3})
	if _, err := b.wait(3, "c00"); err != nil {
		t.Fatalf("start after release: %v", err)
	}
}
