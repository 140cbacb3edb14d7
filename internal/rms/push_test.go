package rms

import (
	"math/rand"
	"reflect"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// TestQuietRoundPushesNothing runs a round in which no profile crossed a
// breakpoint and nothing new arrived. The raw views still carry past
// breakpoints, so trimming them is real work, yet the round must push no
// OnViews and pushViewsLocked must allocate nothing.
func TestQuietRoundPushesNothing(t *testing.T) {
	e, s := newTestServer(16)
	busy, idle1, idle2 := &testApp{}, &testApp{}, &testApp{}
	busy.sess = s.Connect(busy)
	idle1.sess = s.Connect(idle1)
	idle2.sess = s.Connect(idle2)
	spec := RequestSpec{Cluster: c0, N: 4, Duration: 100, Type: request.NonPreempt}
	if _, err := busy.sess.Request(spec); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if _, err := busy.sess.Request(spec); err != nil {
		t.Fatal(err)
	}
	e.Run(50) // both started; the first end (~100) is still ahead
	np, _ := idle1.lastViews(t)
	if bps := np.Get(c0).Breakpoints(); len(bps) < 3 {
		t.Fatalf("idle view %v: want future breakpoints", np)
	}
	pushed := len(busy.views) + len(idle1.views) + len(idle2.views)

	s.ScheduleNow()
	if got := len(busy.views) + len(idle1.views) + len(idle2.views); got != pushed {
		t.Fatalf("quiet round pushed %d views", got-pushed)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sched.Schedule(s.clk.Now())
	if raw := out.NonPreemptViews[idle1.sess.app.ID].Get(c0); raw.TrimBefore(s.clk.Now()) == raw {
		t.Fatalf("raw view %v has no past to trim; the test would prove nothing", raw)
	}
	allocs := testing.AllocsPerRun(100, func() { s.pushViewsLocked(out) })
	if len(s.pending) != 0 {
		t.Fatalf("quiet push queued %d notifications", len(s.pending))
	}
	if allocs != 0 {
		t.Fatalf("quiet pushViewsLocked: %v allocs, want 0", allocs)
	}
}

// TestTrimViewMatchesTrimBefore checks trimViewLocked against its
// definition over random view sequences: the result has exactly the
// clusters of in.TrimBefore(now), with Equal profiles, whatever the last
// pushed view was; a fully reusable view comes back as last itself.
func TestTrimViewMatchesTrimBefore(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cids := []view.ClusterID{"a", "b", "c", "d"}
	randView := func() view.View {
		v := view.New()
		for _, cid := range cids {
			if r.Intn(3) == 0 {
				continue
			}
			var steps []stepfunc.Step
			for k := r.Intn(4); k >= 0; k-- {
				steps = append(steps, stepfunc.Step{Duration: float64(1 + r.Intn(20)), N: r.Intn(4)})
			}
			if r.Intn(2) == 0 {
				steps = append(steps, stepfunc.Step{Duration: stepfunc.Inf, N: r.Intn(4)})
			}
			v[cid] = stepfunc.FromSteps(steps...)
		}
		return v
	}
	s := &Server{}
	var last view.View
	now := 0.0
	for iter := 0; iter < 3000; iter++ {
		in := randView()
		if r.Intn(4) == 0 {
			in = last // an unchanged view, seen again later
		}
		now += float64(r.Intn(6))
		got := s.trimViewLocked(in, last, now)
		want := in.TrimBefore(now)
		if !sameKeys(got, want) || !got.Equal(want) {
			t.Fatalf("iter %d at %v: got %v, want %v", iter, now, got, want)
		}
		if last != nil && sameKeys(last, want) && last.Equal(want) &&
			reflect.ValueOf(got).Pointer() != reflect.ValueOf(last).Pointer() {
			t.Fatalf("iter %d: an unchanged view was rebuilt", iter)
		}
		clear(s.trimMemo)
		clear(s.viewMemo)
		last = got
	}
}

// sameKeys reports whether two views hold the same clusters.
func sameKeys(a, b view.View) bool {
	if len(a) != len(b) {
		return false
	}
	for cid := range a {
		if _, ok := b[cid]; !ok {
			return false
		}
	}
	return true
}
