package view

import (
	"testing"

	"coormv2/internal/stepfunc"
)

var fuzzClusters = []ClusterID{"x", "y", "z"}

// decodeFuzzView consumes bytes into a view over up to three clusters, each
// profile a short step list (negative plateaus included: accumulator views
// go negative transiently inside the scheduler).
func decodeFuzzView(data []byte) (View, []byte) {
	v := New()
	if len(data) == 0 {
		return v, data
	}
	nc := int(data[0] % 4)
	data = data[1:]
	for c := 0; c < nc; c++ {
		if len(data) == 0 {
			break
		}
		k := int(data[0] % 5)
		data = data[1:]
		steps := make([]stepfunc.Step, 0, k)
		for i := 0; i < k && len(data) >= 2; i++ {
			steps = append(steps, stepfunc.Step{
				Duration: float64(data[0]%16)/2 + 0.5,
				N:        int(int8(data[1])),
			})
			data = data[2:]
		}
		f := stepfunc.FromSteps(steps...)
		if !f.IsZero() {
			v[fuzzClusters[c]] = f
		}
	}
	return v, data
}

// FuzzMutViewOps differentially checks the in-place Mut* accumulator ops
// against their immutable counterparts: same result views, and no zero
// profiles left behind (the map-canonical form both rely on).
func FuzzMutViewOps(f *testing.F) {
	f.Add([]byte{}, byte(0), float64(1), float64(2), int64(3))
	f.Add([]byte{2, 3, 4, 10, 2, 5, 250, 1, 9, 9, 3, 2, 8, 8, 4, 200}, byte(5), float64(0.5), float64(3), int64(-7))
	f.Add([]byte{3, 4, 1, 128, 2, 127, 3, 3, 2, 2, 1, 1, 9, 9, 8, 8, 7, 7}, byte(130), float64(2), float64(0), int64(40))
	f.Fuzz(func(t *testing.T, data []byte, lo byte, t0, dur float64, n int64) {
		a, rest := decodeFuzzView(data)
		b, _ := decodeFuzzView(rest)

		checkNoZeros := func(name string, v View) {
			t.Helper()
			for cid, fn := range v {
				if fn == nil || fn.IsZero() {
					t.Fatalf("%s left a zero profile for %q: %v", name, cid, v)
				}
			}
		}
		expectEqual := func(name string, got, want View) {
			t.Helper()
			checkNoZeros(name, got)
			if !got.Equal(want) {
				t.Fatalf("%s: got %v, want %v (a=%v b=%v)", name, got, want, a, b)
			}
		}

		mutAdd := a.Clone()
		mutAdd.MutAdd(b)
		expectEqual("MutAdd", mutAdd, a.Add(b))

		mutSub := a.Clone()
		mutSub.MutSub(b)
		expectEqual("MutSub", mutSub, a.Sub(b))

		clamp := int(int8(lo))
		mutClamp := a.Clone()
		mutClamp.MutClampMin(clamp)
		expectEqual("MutClampMin", mutClamp, a.ClampMin(clamp))

		// AddRect vs adding a one-rectangle view: bound the rectangle into
		// the sane domain.
		rt0 := t0
		if !(rt0 >= 0 && rt0 < 1e6) {
			rt0 = 1
		}
		rdur := dur
		if !(rdur > 0 && rdur < 1e6) {
			rdur = 2
		}
		rn := int(n % 256)
		expectEqual("AddRect", a.AddRect("x", rt0, rdur, rn), a.Add(View{"x": stepfunc.Rect(rt0, rdur, rn)}))

		// The immutable inputs must not have been disturbed by any Mut op
		// (profiles may be shared, never mutated) — b especially, since it
		// is the view the Mut accumulators alias profiles from.
		av, arest := decodeFuzzView(data)
		if !a.Equal(av) {
			t.Fatalf("input view a mutated: %v vs %v", a, av)
		}
		bv, _ := decodeFuzzView(arest)
		if !b.Equal(bv) {
			t.Fatalf("argument view b mutated: %v vs %v", b, bv)
		}
	})
}
