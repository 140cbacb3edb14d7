package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/federation"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// spanKind names a timed hop. Client spans are recorded around the churn
// cycle's calls; backend and handler spans by the wrappers below, which sit at
// the transport↔federation seam and time calls into public functions
// only: nothing inside the program is instrumented.
type spanKind uint8

const (
	spCycle      spanKind = iota // client: due time → done() acked
	spReq                        // client: transport.Client.Request
	spWaitStart                  // client: req-ack → start delivered
	spDone                       // client: transport.Client.Done
	spFedRequest                 // backend: federation.Session.Request
	spFedDone                    // backend: federation.Session.Done
	spViews                      // handler: wireSession.OnViews (encode, marshal, enqueue)
	spStart                      // handler: wireSession.OnStart
	nKinds
)

var kindNames = [nKinds]string{
	"cycle", "client.request", "client.wait_start", "client.done",
	"fed.request", "fed.done", "transport.views", "transport.start",
}

// parentKind joins spans into trees: a span's parent is the span of this
// kind with the same (app ID, request ID). Spans without a request (view
// pushes) are roots.
var parentKind = [nKinds]spanKind{
	spReq: spCycle, spWaitStart: spCycle, spDone: spCycle,
	spFedRequest: spReq, spFedDone: spDone, spStart: spCycle,
}

func hasParent(k spanKind) bool { return k != spCycle && k != spViews }

type span struct {
	kind       spanKind
	app        int32
	req        int64
	start, end int64 // ns since the tracer's epoch
}

// maxViewSamples bounds the views kept for the proto codec timings.
const maxViewSamples = 16

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one branch per hop.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	views [][2]view.View // most recent pushed view pairs, for the codec timings
	nView int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(k spanKind, app int, req request.ID, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{kind: k, app: int32(app), req: int64(req),
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) captureViews(np, p view.View) {
	t.mu.Lock()
	if len(t.views) < maxViewSamples {
		t.views = append(t.views, [2]view.View{np, p})
	} else {
		t.views[t.nView%maxViewSamples] = [2]view.View{np, p}
	}
	t.nView++
	t.mu.Unlock()
}

// sampledViews returns the captured view pairs.
func (t *tracer) sampledViews() [][2]view.View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][2]view.View(nil), t.views...)
}

// tracedBackend is the transport.Backend of the traced run: the
// federation, with every session and handler wrapped in timers.
type tracedBackend struct {
	fed *federation.Federator
	tr  *tracer
}

func (b tracedBackend) Connect(h rms.AppHandler, opts ...rms.ConnectOption) transport.Session {
	th := &tracedHandler{h: h, tr: b.tr}
	var wrapped rms.AppHandler = th
	// The transport's handler prunes its replay state through
	// rms.RequestObserver, which the federation finds by type assertion:
	// hiding it would change behaviour.
	if ro, ok := h.(rms.RequestObserver); ok {
		wrapped = tracedObserver{th, ro}
	}
	sess := b.fed.Connect(wrapped, opts...)
	th.app.Store(int32(sess.AppID()))
	return tracedSession{sess: sess, tr: b.tr}
}

type tracedSession struct {
	sess *federation.Session
	tr   *tracer
}

func (s tracedSession) AppID() int  { return s.sess.AppID() }
func (s tracedSession) Disconnect() { s.sess.Disconnect() }

func (s tracedSession) Request(spec rms.RequestSpec) (request.ID, error) {
	t0 := time.Now()
	id, err := s.sess.Request(spec)
	s.tr.record(spFedRequest, s.sess.AppID(), id, t0, time.Now())
	return id, err
}

func (s tracedSession) Done(id request.ID, released []int) error {
	t0 := time.Now()
	err := s.sess.Done(id, released)
	s.tr.record(spFedDone, s.sess.AppID(), id, t0, time.Now())
	return err
}

// tracedHandler times the transport's notification handler. Its app ID is
// set once the federation assigned one; notifications before that carry 0.
type tracedHandler struct {
	h   rms.AppHandler
	tr  *tracer
	app atomic.Int32
}

func (t *tracedHandler) OnViews(np, p view.View) {
	t0 := time.Now()
	t.h.OnViews(np, p)
	t.tr.record(spViews, int(t.app.Load()), 0, t0, time.Now())
	t.tr.captureViews(np, p)
}

func (t *tracedHandler) OnStart(id request.ID, nodeIDs []int) {
	t0 := time.Now()
	t.h.OnStart(id, nodeIDs)
	t.tr.record(spStart, int(t.app.Load()), id, t0, time.Now())
}

func (t *tracedHandler) OnKill(reason string) { t.h.OnKill(reason) }

type tracedObserver struct {
	*tracedHandler
	ro rms.RequestObserver
}

func (t tracedObserver) OnRequestFinished(id request.ID)   { t.ro.OnRequestFinished(id) }
func (t tracedObserver) OnRequestsReaped(ids []request.ID) { t.ro.OnRequestsReaped(ids) }

// kindStats summarises one span kind inside a window: durations and self
// times (duration minus the part covered by child spans), in µs.
type kindStats struct {
	dur, self []float64
}

// analyze joins spans into trees and summarises those that start inside
// [from, to). It returns per-kind stats and every span's parent index
// (-1 for roots), aligned with the returned span slice.
func (t *tracer) analyze(from, to time.Time) ([nKinds]kindStats, []span, []int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type key struct {
		kind spanKind
		app  int32
		req  int64
	}
	index := make(map[key]int, len(spans))
	for i, s := range spans {
		if s.req != 0 {
			index[key{s.kind, s.app, s.req}] = i
		}
	}
	parent := make([]int, len(spans))
	children := make(map[int][]int)
	for i, s := range spans {
		parent[i] = -1
		if !hasParent(s.kind) || s.req == 0 {
			continue
		}
		if p, ok := index[key{parentKind[s.kind], s.app, s.req}]; ok {
			parent[i] = p
			children[p] = append(children[p], i)
		}
	}
	lo, hi := from.Sub(t.epoch).Nanoseconds(), to.Sub(t.epoch).Nanoseconds()
	var out [nKinds]kindStats
	for i, s := range spans {
		if s.start < lo || s.start >= hi {
			continue
		}
		d := float64(s.end-s.start) / 1e3
		st := &out[s.kind]
		st.dur = append(st.dur, d)
		st.self = append(st.self, d-covered(s, spans, children[i])/1e3)
	}
	return out, spans, parent
}

// covered returns the ns of s's interval covered by the union of its
// children's intervals.
func covered(s span, spans []span, kids []int) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curB {
			curB = max(curB, v[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v[0], v[1], true
	}
	if open {
		total += curB - curA
	}
	return float64(total)
}

// maxWrittenSpans bounds the trace file; the summary covers every span.
const maxWrittenSpans = 200000

type spanJSON struct {
	Name    string  `json:"name"`
	App     int32   `json:"app"`
	Req     int64   `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
}

type kindSummary struct {
	Count     int     `json:"count"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	SelfP50US float64 `json:"self_p50_us"`
	SelfSumMS float64 `json:"self_total_ms"`
}

func summarize(stats [nKinds]kindStats) map[string]kindSummary {
	out := make(map[string]kindSummary)
	for k, st := range stats {
		if len(st.dur) == 0 {
			continue
		}
		var sum float64
		for _, v := range st.self {
			sum += v
		}
		out[kindNames[k]] = kindSummary{
			Count: len(st.dur), P50US: quantile(st.dur, 0.5), P99US: quantile(st.dur, 0.99),
			SelfP50US: quantile(st.self, 0.5), SelfSumMS: sum / 1e3,
		}
	}
	return out
}

// writeTrace writes the spans (the first maxWrittenSpans, parents joined)
// and the summary of the traced pass as one JSON document.
func writeTrace(path string, spans []span, parent []int, summary map[string]kindSummary) error {
	doc := struct {
		Note      string                 `json:"note"`
		Total     int                    `json:"total_spans"`
		Summary   map[string]kindSummary `json:"summary"`
		Spans     []spanJSON             `json:"spans"`
		Truncated int                    `json:"truncated"`
	}{
		Note: "times in µs since the tracer started; parent indexes the spans list (-1: root); " +
			"self time is duration minus the time child spans cover",
		Total: len(spans), Summary: summary,
	}
	n := min(len(spans), maxWrittenSpans)
	doc.Truncated = len(spans) - n
	doc.Spans = make([]spanJSON, n)
	for i := 0; i < n; i++ {
		s := spans[i]
		p := parent[i]
		if p >= n {
			p = -1
		}
		doc.Spans[i] = spanJSON{Name: kindNames[s.kind], App: s.app, Req: s.req,
			StartUS: float64(s.start) / 1e3, EndUS: float64(s.end) / 1e3, Parent: p}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// codecCost times the proto view codec on the captured views: encode
// (EncodeView + Marshal) and decode (Unmarshal + DecodeView) per frame in
// µs, and the mean frame size in KiB.
func codecCost(views [][2]view.View) (encUS, decUS, frameKB float64, err error) {
	if len(views) == 0 {
		return 0, 0, 0, nil
	}
	frames := make([][]byte, len(views))
	var bytes int
	for i, v := range views {
		m := proto.Message{Type: proto.MsgViews, NonPreemptView: proto.EncodeView(v[0]), PreemptView: proto.EncodeView(v[1])}
		if frames[i], err = m.Marshal(); err != nil {
			return 0, 0, 0, err
		}
		bytes += len(frames[i])
	}
	const budget = 100 * time.Millisecond
	var n int
	t0 := time.Now()
	for n = 0; n < len(views) || time.Since(t0) < budget; n++ {
		v := views[n%len(views)]
		m := proto.Message{Type: proto.MsgViews, NonPreemptView: proto.EncodeView(v[0]), PreemptView: proto.EncodeView(v[1])}
		if _, err := m.Marshal(); err != nil {
			return 0, 0, 0, err
		}
	}
	encUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	t0 = time.Now()
	for n = 0; n < len(frames) || time.Since(t0) < budget; n++ {
		m, err := proto.Unmarshal(frames[n%len(frames)])
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := m.NonPreemptView.DecodeView(); err != nil {
			return 0, 0, 0, err
		}
		if _, err := m.PreemptView.DecodeView(); err != nil {
			return 0, 0, 0, err
		}
	}
	decUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	return encUS, decUS, float64(bytes) / float64(len(frames)) / 1024, nil
}
