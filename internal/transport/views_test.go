package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"coormv2/internal/netchaos"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// viewBackend is a Backend with one stand-in session whose views the test
// pushes by hand through the transport's handler. With initial set, the
// views are pushed from inside Connect — the way an RMS round can fire
// before the transport attached the connection.
type viewBackend struct {
	initial *[2]view.View

	mu sync.Mutex
	h  rms.AppHandler
}

func (b *viewBackend) Connect(h rms.AppHandler, _ ...rms.ConnectOption) Session {
	b.mu.Lock()
	b.h = h
	b.mu.Unlock()
	if b.initial != nil {
		h.OnViews(b.initial[0], b.initial[1])
	}
	return stubSession{}
}

func (b *viewBackend) push(np, p view.View) {
	b.mu.Lock()
	h := b.h
	b.mu.Unlock()
	h.OnViews(np, p)
}

type stubSession struct{}

func (stubSession) AppID() int { return 1 }
func (stubSession) Request(rms.RequestSpec) (request.ID, error) {
	return 0, errors.New("stub session")
}
func (stubSession) Done(request.ID, []int) error { return errors.New("stub session") }
func (stubSession) Disconnect()                  {}

// viewsApp records every view pair the client hands the application.
type viewsApp struct {
	mu    sync.Mutex
	views [][2]view.View
}

func (a *viewsApp) OnViews(np, p view.View) {
	a.mu.Lock()
	a.views = append(a.views, [2]view.View{np, p})
	a.mu.Unlock()
}
func (a *viewsApp) OnStart(request.ID, []int) {}
func (a *viewsApp) OnKill(string)             {}

func (a *viewsApp) received() [][2]view.View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([][2]view.View(nil), a.views...)
}

func samePair(a, b [2]view.View) bool { return a[0].Equal(b[0]) && a[1].Equal(b[1]) }

func startViewServer(t *testing.T, b *viewBackend, grace time.Duration) string {
	t.Helper()
	srv := NewBackendServer(b)
	srv.Logf = func(string, ...any) {}
	srv.Grace = grace
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return addr
}

// TestFreshSessionGetsViewsPushedDuringConnect pins the attach race fix:
// views the backend pushes from inside Connect, before the connection is
// attached, must still reach a fresh client — complete, and not flagged
// as a replay.
func TestFreshSessionGetsViewsPushedDuringConnect(t *testing.T) {
	np := view.Of(map[view.ClusterID]*stepfunc.StepFunc{c0: stepfunc.Constant(16), "c1": stepfunc.Rect(0, 50, 3)})
	p := view.Constant(16, c0)
	addr := startViewServer(t, &viewBackend{initial: &[2]view.View{np, p}}, 0)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	data, _ := (&proto.Message{Type: proto.MsgConnect}).Marshal()
	if _, err := conn.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn, 0)
	var types []proto.MsgType
	for {
		line, err := fr.next()
		if err != nil {
			t.Fatalf("no views frame after %v: %v", types, err)
		}
		m, err := proto.Unmarshal(line)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, m.Type)
		if m.Type != proto.MsgViews {
			continue
		}
		if m.Replay {
			t.Error("a fresh session's first views frame is flagged Replay")
		}
		gotNP, err1 := m.NonPreemptView.PatchView(nil)
		gotP, err2 := m.PreemptView.PatchView(nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !gotNP.Equal(np) || !gotP.Equal(p) {
			t.Fatalf("first views frame = %v / %v, want %v / %v", gotNP, gotP, np, p)
		}
		return
	}
}

// randViewStep returns a copy of v in which clusters appear, change,
// vanish, turn into an explicit zero profile, or keep their profile.
func randViewStep(r *rand.Rand, v view.View) view.View {
	out := v.Clone()
	for i := 0; i < 6; i++ {
		cid := view.ClusterID(fmt.Sprintf("c%d", i))
		switch r.Intn(6) {
		case 0:
			delete(out, cid)
		case 1:
			out[cid] = stepfunc.Zero()
		case 2, 3:
			var steps []stepfunc.Step
			for k := r.Intn(4); k >= 0; k-- {
				steps = append(steps, stepfunc.Step{Duration: float64(1 + r.Intn(500)), N: r.Intn(64)})
			}
			out[cid] = stepfunc.FromSteps(steps...)
		}
	}
	return out
}

// TestViewFramesRoundTrip pushes random view sequences through a
// wireSession to a Client, across a severed connection and a resume. The
// application must see views Equal to the server-side ones, in order: every
// pair pushed while connected, and after the outage the latest one.
func TestViewFramesRoundTrip(t *testing.T) {
	b := &viewBackend{}
	backendAddr := startViewServer(t, b, 5*time.Second)
	px := netchaos.NewProxy(backendAddr)
	addr, err := px.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	app := &viewsApp{}
	c, err := DialOptions(addr, app, Options{
		Reconnect:       true,
		ReconnectWindow: 8 * time.Second,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitLatest := func(want [2]view.View) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got := app.received(); len(got) > 0 && samePair(got[len(got)-1], want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("views %v / %v never delivered", want[0], want[1])
			}
			time.Sleep(time.Millisecond)
		}
	}

	r := rand.New(rand.NewSource(17))
	var pushed [][2]view.View
	var np, p view.View
	push := func() {
		np, p = randViewStep(r, np), randViewStep(r, p)
		pushed = append(pushed, [2]view.View{np, p})
		b.push(np, p)
	}
	const steps, severAt, outage = 80, 40, 3
	for i := 0; i < steps; i++ {
		if i == severAt {
			px.Sever()
			for k := 0; k < outage; k++ {
				push() // cached while detached, or lost with the dying connection
			}
			deadline := time.Now().Add(5 * time.Second)
			for c.Reconnects() < 1 {
				if time.Now().After(deadline) {
					t.Fatal("client never resumed")
				}
				time.Sleep(time.Millisecond)
			}
			waitLatest(pushed[len(pushed)-1])
		}
		push()
		waitLatest(pushed[len(pushed)-1])
	}

	// In order: the received pairs walk the pushed ones forward (a resume
	// replay may repeat the latest pair), and every pair pushed while
	// connected was seen.
	got := app.received()
	j := 0
	seen := make([]bool, len(pushed))
	for k, v := range got {
		for j < len(pushed) && !samePair(pushed[j], v) {
			j++
		}
		if j == len(pushed) {
			t.Fatalf("received pair %d (%v / %v) is out of order or was never pushed", k, v[0], v[1])
		}
		seen[j] = true
	}
	for i, ok := range seen {
		if i > 0 && samePair(pushed[i], pushed[i-1]) {
			continue // indistinguishable from its predecessor
		}
		if !ok && (i < severAt || i >= severAt+outage) {
			t.Errorf("pair %d, pushed while connected, never reached the application", i)
		}
	}
}

// FuzzViewsFrames feeds random frame streams to the client's read loop.
// It must never panic; every views frame must hand the application exactly
// the views a reference patch of the previous ones gives; a malformed frame
// must end the connection with an error other than EOF.
func FuzzViewsFrames(f *testing.F) {
	frame := func(m proto.Message) string {
		data, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return string(data) + "\n"
	}
	v1 := view.Of(map[view.ClusterID]*stepfunc.StepFunc{"a": stepfunc.Rect(0, 10, 4), "b": stepfunc.Constant(8)})
	v2 := view.Of(map[view.ClusterID]*stepfunc.StepFunc{"b": stepfunc.Constant(6), "c": stepfunc.Rect(5, 20, 2)})
	full := frame(proto.Message{Type: proto.MsgViews, NonPreemptView: proto.EncodeView(v1), PreemptView: proto.EncodeView(v2)})
	delta := frame(proto.Message{Type: proto.MsgViews, NonPreemptView: proto.EncodeViewDelta(v1, v2)})
	bad := `{"type":"views","np_view":{"a":[{"dur":-3,"n":1}]}}` + "\n"
	f.Add([]byte(full + delta))
	f.Add([]byte(full + delta + full))
	f.Add([]byte(delta + `{"type":"views"}` + "\n" + full))
	f.Add([]byte(full + bad + full))
	f.Add([]byte(`{"type":"ping","seq":3}` + "\n" + full + "not json\n" + full))
	f.Add([]byte(full + `{"type":"kill","reason":"x"}` + "\n" + delta))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference: walk the complete lines the way the read loop
		// does, patching a copy of the views cluster by cluster.
		var want [][2]view.View
		var refNP, refP view.View
		malformed := false
		patch := func(base view.View, vj proto.ViewJSON) (view.View, bool) {
			out := view.New()
			for cid, prof := range base {
				out[cid] = prof
			}
			for cid, steps := range vj {
				one, err := proto.ViewJSON{cid: steps}.DecodeView()
				if err != nil {
					return nil, false
				}
				if prof, ok := one[view.ClusterID(cid)]; ok {
					out[view.ClusterID(cid)] = prof
				} else {
					delete(out, view.ClusterID(cid))
				}
			}
			return out, true
		}
	walk:
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if !strings.HasSuffix(line, "\n") {
				break // a trailing partial frame: the stream ends in EOF
			}
			m, err := proto.Unmarshal([]byte(strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")))
			if err != nil {
				malformed = true
				break
			}
			switch m.Type {
			case proto.MsgKill:
				break walk
			case proto.MsgViews:
				np, ok1 := patch(refNP, m.NonPreemptView)
				p, ok2 := patch(refP, m.PreemptView)
				if !ok1 || !ok2 {
					malformed = true
					break walk
				}
				refNP, refP = np, p
				want = append(want, [2]view.View{np, p})
			}
		}

		app := &viewsApp{}
		c := &Client{
			h:       app,
			waiters: make(map[int64]*pendingCall),
			started: make(map[int64]bool),
			notif:   make(chan func(), 16),
		}
		dispatched := make(chan struct{})
		go func() {
			defer close(dispatched)
			for fn := range c.notif {
				fn()
			}
		}()
		err := c.readLoop(newFrameReader(bytes.NewReader(data), 0))
		close(c.notif)
		<-dispatched

		if err == nil {
			t.Fatal("read loop returned without an error")
		}
		clean := errors.Is(err, io.EOF) || errors.Is(err, errSessionKilled)
		if malformed == clean {
			t.Fatalf("malformed=%v, but the read loop ended with %v", malformed, err)
		}
		got := app.received()
		if len(got) != len(want) {
			t.Fatalf("application got %d view pairs, want %d", len(got), len(want))
		}
		for i := range want {
			if !samePair(got[i], want[i]) {
				t.Fatalf("pair %d: got %v / %v, want %v / %v", i, got[i][0], got[i][1], want[i][0], want[i][1])
			}
		}
	})
}
