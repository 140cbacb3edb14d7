package core

import (
	"fmt"
	"runtime"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// backlogRound builds one runner on 250 of 256 nodes and a batch
// application queueing n rigid jobs of 64–191 nodes behind it, warms the
// scheduler up, and returns the allocations and bytes of one steady full
// round (dynamicFIFO makes every round a full round, as DRF does).
func backlogRound(t *testing.T, n int) (allocs, bytes float64) {
	t.Helper()
	s := NewScheduler(map[view.ClusterID]int{c0: 256})
	s.SetSchedulingPolicy(dynamicFIFO{})
	runner := s.AddApp(1, 0)
	batch := s.AddApp(2, 1)
	r := submit(t, s, runner, 1, 250, 1e8, request.NonPreempt, request.Free, nil)
	start(s, r, 0)
	for i := 0; i < n; i++ {
		submit(t, s, batch, request.ID(2+i), 64+(i*37)%128, float64(600+(i*53)%3000),
			request.NonPreempt, request.Free, nil)
	}
	now := 1.0
	for i := 0; i < 3; i++ {
		s.Schedule(now)
		now++
	}
	round := func() {
		if out := s.Schedule(now); len(out.ToStart) != 0 {
			t.Fatalf("backlog started %d jobs", len(out.ToStart))
		}
		now++
	}
	allocs = testing.AllocsPerRun(20, round)
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// TestFullRoundCostLinearInBacklog pins that a full round's cost does not
// grow quadratically with the CBF backlog. Summing each occupancy view
// rectangle by rectangle copied the growing profile once per queued job:
// from 64 to 512 jobs the allocations per round grew 7× and the bytes 50×.
// With one sort-and-sweep pass per cluster the allocations per round do
// not depend on the backlog, and the bytes grow with the size of the
// profiles alone.
func TestFullRoundCostLinearInBacklog(t *testing.T) {
	allocs64, bytes64 := backlogRound(t, 64)
	allocs512, bytes512 := backlogRound(t, 512)
	t.Logf("n=64: %.0f allocs, %.0f B per round; n=512: %.0f allocs, %.0f B per round",
		allocs64, bytes64, allocs512, bytes512)
	if allocs512 != allocs64 {
		t.Errorf("allocs per full round: %v at 512 queued jobs, %v at 64; want equal", allocs512, allocs64)
	}
	if bytes512 > 10*bytes64 {
		t.Errorf("bytes per full round: %.0f at 512 queued jobs, over 10× the %.0f at 64", bytes512, bytes64)
	}
}

// checkNormalized fails unless f is stored in canonical form: breakpoints
// at strictly increasing times from 0, no two consecutive equal values,
// and no lone zero breakpoint.
func checkNormalized(t *testing.T, what string, f *stepfunc.StepFunc) {
	t.Helper()
	for i := 0; i < f.Len(); i++ {
		ti, ni := f.At(i)
		if i == 0 {
			if ti != 0 || (f.Len() == 1 && ni == 0) {
				t.Fatalf("%s: malformed profile %v", what, f)
			}
			continue
		}
		if tp, np := f.At(i - 1); ti <= tp || ni == np {
			t.Fatalf("%s: malformed profile %v (breakpoint %d)", what, f, i)
		}
	}
}

// TestTinyDurationKeepsViewsNormalized submits a request whose duration
// rounds away at its start time (t+1e-300 == t), which a peer can send:
// request validation accepts any positive duration. Its rectangle covers
// no instant, so every view profile must stay in canonical form, before
// and after the request starts.
func TestTinyDurationKeepsViewsNormalized(t *testing.T) {
	s := newSched(10)
	runner := s.AddApp(1, 0)
	tiny := s.AddApp(2, 1)
	s.AddApp(3, 2) // idle: sees the running availability after app 2
	start(s, submit(t, s, runner, 1, 4, 1000, request.NonPreempt, request.Free, nil), 0)
	r := submit(t, s, tiny, 2, 3, 1e-300, request.NonPreempt, request.Free, nil)
	check := func(out *Outcome) {
		t.Helper()
		for id, v := range out.NonPreemptViews {
			for cid, f := range v {
				checkNormalized(t, fmt.Sprintf("non-preemptive view of app %d on %s", id, cid), f)
			}
		}
		for id, v := range out.PreemptViews {
			for cid, f := range v {
				checkNormalized(t, fmt.Sprintf("preemptive view of app %d on %s", id, cid), f)
			}
		}
	}
	check(s.Schedule(50))
	if r.ScheduledAt != 50 {
		t.Fatalf("tiny request scheduled at %v, want 50", r.ScheduledAt)
	}
	start(s, r, 50)
	check(s.Schedule(50))
}
