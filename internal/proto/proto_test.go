package proto

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

func TestViewRoundTrip(t *testing.T) {
	v := view.New().
		AddRect("a", 0, 3600, 4).
		AddRect("a", 3600, 3600, 3).
		AddRect("b", 0, math.Inf(1), 6)
	enc := EncodeView(v)
	dec, err := enc.DecodeView()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(v) {
		t.Errorf("round trip lost data: %v vs %v", dec, v)
	}
}

func TestViewRoundTripEmpty(t *testing.T) {
	dec, err := EncodeView(view.New()).DecodeView()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("empty view round trip = %v", dec)
	}
}

func TestViewDecodeRejectsBadDuration(t *testing.T) {
	vj := ViewJSON{"a": []StepJSON{{Duration: -7, N: 3}}}
	if _, err := vj.DecodeView(); err == nil {
		t.Error("negative (non-sentinel) duration should be rejected")
	}
}

// TestViewDeltaFrameRule pins the views-frame rule: a delta lists only the
// clusters that changed, a vanished cluster as the zero profile, and the
// delta against nothing is the complete view. Patching the receiver's view
// with it reproduces the sender's, without touching the old view.
func TestViewDeltaFrameRule(t *testing.T) {
	prev := view.New().AddRect("a", 0, 3600, 4).AddRect("b", 0, math.Inf(1), 6).AddRect("c", 0, 10, 1)
	next := prev.Clone()
	next["a"] = prev["a"].AddRect(3600, 3600, 3) // changed
	delete(next, "c")                            // vanished
	next["d"] = prev["b"]                        // appeared

	delta := EncodeViewDelta(prev, next)
	if len(delta) != 3 || delta["b"] != nil {
		t.Fatalf("delta lists %v, want exactly a, c and d", delta)
	}
	if zero := []StepJSON{{Duration: infDuration, N: 0}}; !reflect.DeepEqual(delta["c"], zero) {
		t.Errorf("vanished cluster sent as %v, want the zero profile %v", delta["c"], zero)
	}
	if full := EncodeViewDelta(nil, next); !reflect.DeepEqual(full, EncodeView(next)) || len(full) != len(next) {
		t.Errorf("delta against nothing = %v, want the complete view", full)
	}
	if len(EncodeViewDelta(next, next.Clone())) != 0 {
		t.Error("an unchanged view must encode an empty delta")
	}

	before := prev.String()
	got, err := delta.PatchView(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(next) || len(got) != len(next) {
		t.Errorf("patched view = %v, want %v", got, next)
	}
	if prev.String() != before {
		t.Errorf("PatchView modified its base: %v, was %s", prev, before)
	}
	if same, _ := ViewJSON(nil).PatchView(got); reflect.ValueOf(same).Pointer() != reflect.ValueOf(got).Pointer() {
		t.Error("an empty delta must return the base view itself")
	}
	bad := ViewJSON{"a": []StepJSON{{Duration: -7, N: 3}}}
	if _, err := bad.PatchView(prev); err == nil {
		t.Error("a malformed delta must be rejected")
	}
}

func TestRequestSpecRoundTrip(t *testing.T) {
	specs := []rms.RequestSpec{
		{Cluster: "c0", N: 4, Duration: 100, Type: request.NonPreempt},
		{Cluster: "c0", N: 8, Duration: 1e6, Type: request.PreAlloc},
		{Cluster: "c1", N: 2, Duration: math.Inf(1), Type: request.Preempt,
			RelatedHow: request.Coalloc, RelatedTo: 42},
		{Cluster: "c0", N: 6, Duration: 60, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: 7},
	}
	for _, spec := range specs {
		m := EncodeRequestSpec(spec, 9)
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.DecodeRequestSpec()
		if err != nil {
			t.Fatal(err)
		}
		if got != spec {
			t.Errorf("round trip: got %+v, want %+v", got, spec)
		}
		if back.Seq != 9 {
			t.Errorf("Seq lost: %d", back.Seq)
		}
	}
}

func TestDecodeRequestSpecErrors(t *testing.T) {
	m := &Message{Type: MsgViews}
	if _, err := m.DecodeRequestSpec(); err == nil {
		t.Error("non-request message should error")
	}
	m = &Message{Type: MsgRequest, ReqType: "XX"}
	if _, err := m.DecodeRequestSpec(); err == nil {
		t.Error("unknown req type should error")
	}
	m = &Message{Type: MsgRequest, ReqType: "NP", RelatedHow: "SOMEDAY"}
	if _, err := m.DecodeRequestSpec(); err == nil {
		t.Error("unknown relation should error")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := Unmarshal([]byte(`{"seq":1}`)); err == nil {
		t.Error("missing type should error")
	}
}

func TestEncodeNames(t *testing.T) {
	if EncodeReqType(request.PreAlloc) != "PA" ||
		EncodeReqType(request.NonPreempt) != "NP" ||
		EncodeReqType(request.Preempt) != "P" {
		t.Error("req type names")
	}
	if EncodeRelation(request.Free) != "FREE" ||
		EncodeRelation(request.Coalloc) != "COALLOC" ||
		EncodeRelation(request.Next) != "NEXT" {
		t.Error("relation names")
	}
}

func TestMessageJSONStable(t *testing.T) {
	m := Message{Type: MsgStart, ReqID: 3, NodeIDs: []int{1, 2}}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != MsgStart || back.ReqID != 3 || len(back.NodeIDs) != 2 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestResilienceFieldsRoundTrip(t *testing.T) {
	m := Message{
		Type:   MsgConnect,
		Idem:   42,
		Resume: "deadbeef",
		Tenant: "org/team/q",
		Replay: true,
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Idem != 42 || got.Resume != "deadbeef" || got.Tenant != "org/team/q" || !got.Replay {
		t.Fatalf("round trip lost resilience fields: %+v", got)
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgPing, MsgPong} {
		m := Message{Type: typ, Seq: 7}
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != typ || got.Seq != 7 {
			t.Fatalf("%s round trip: %+v", typ, got)
		}
	}
}

func TestZeroResilienceFieldsOmitted(t *testing.T) {
	// Frames from pre-resilience peers must stay byte-compatible: the new
	// fields are omitempty and absent fields decode to their zero values.
	m := Message{Type: MsgRequest, Seq: 1}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"idem", "resume", "tenant", "replay"} {
		if strings.Contains(string(data), banned) {
			t.Fatalf("zero-valued %q serialized: %s", banned, data)
		}
	}
}
