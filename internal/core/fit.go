package core

import (
	"math"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// maxFitIterations bounds the fixed-point loop of fit(). The loop converges
// because EarliestScheduleAt only moves forward over a finite set of
// breakpoints; the bound is a defence against degenerate inputs ("in the
// worst case, all requests are scheduled at infinity", §A.4.2).
const maxFitIterations = 100000

// fit implements Algorithm 2 (§A.4.2). It schedules the non-fixed requests
// of the set into the availability view vi, no earlier than t0, honouring
// the FREE / COALLOC / NEXT constraints, and returns the view their
// allocations occupy. toView must have been called on the set beforehand so
// that the Fixed flags and the fixed requests' ScheduledAt are up to date.
//
// Deviation from the paper, documented: when a constraint cannot be
// satisfied exactly and the parent request is fixed (it already started) or
// lives in another request set, the parent cannot be delayed. The paper's
// pseudo-code would re-enqueue it forever; we accept the child's later
// start time instead, which matches the protocol's behaviour (the RMS
// simply notifies the start later).
func fit(rs *request.Set, vi view.View, t0 float64) view.View {
	return fitScratch(rs, vi, t0, &scratch{})
}

// fitScratch is fit with caller-provided scratch buffers.
func fitScratch(rs *request.Set, vi view.View, t0 float64, sc *scratch) view.View {
	// Initialization (lines 1–4).
	q := &sc.q
	q.reset()
	for _, r := range rs.All() {
		if !r.Fixed {
			r.EarliestScheduleAt = t0
			if r.NotBefore > r.EarliestScheduleAt {
				r.EarliestScheduleAt = r.NotBefore
			}
			r.ScheduledAt = math.Inf(1)
		}
	}
	// First, add root requests to the queue (line 5).
	for _, r := range rs.All() {
		if rs.IsRoot(r) {
			q.push(r)
		}
	}

	findHole := func(r *request.Request, lower float64) float64 {
		after := lower
		if r.EarliestScheduleAt > after {
			after = r.EarliestScheduleAt
		}
		return vi.FindHole(r.Cluster, r.N, r.Duration, after)
	}

	// pushChildren enqueues the requests of the set constrained to r.
	pushChildren := func(r *request.Request) {
		rs.EachChild(r, func(rc *request.Request) { q.push(rc) })
	}

	for iter := 0; !q.empty() && iter < maxFitIterations; iter++ {
		r := q.pop()

		// If this is a fixed request, just add children to the queue
		// (lines 8–10).
		if r.Fixed {
			pushChildren(r)
			continue
		}

		rp := r.RelatedTo
		rpMovable := rp != nil && !rp.Fixed && rs.Contains(rp)
		r.NAlloc = r.N // default, may be overwritten (line 12)
		tBefore := r.ScheduledAt

		switch r.RelatedHow {
		case request.Free:
			if r.Type == request.Preempt {
				// Preemptible requests are never delayed, they are shrunk:
				// "due to the race between A and B, if insufficient
				// resources are available ..., the RMS cannot allocate the
				// requested node-count ... nAlloc might be smaller than n,
				// which, since preemptible requests are not guaranteed, is
				// allowed by the CooRMv2 specifications" (§A.1).
				r.ScheduledAt = t0
				if r.EarliestScheduleAt > t0 {
					r.ScheduledAt = r.EarliestScheduleAt
				}
				w0, w1 := allocWindow(r, t0)
				r.NAlloc = vi.Alloc(r.Cluster, r.N, w0, w1-w0)
			} else {
				r.ScheduledAt = findHole(r, 0)
			}

		case request.Coalloc:
			if r.Type == request.Preempt &&
				(rp.Type == request.PreAlloc || rp.Type == request.NonPreempt) {
				// A preemptible request co-allocated with a (pre-)allocation
				// snaps to it and is shrunk to the available resources
				// (lines 17–19).
				r.ScheduledAt = rp.ScheduledAt
				w0, w1 := allocWindow(r, t0)
				r.NAlloc = vi.Alloc(r.Cluster, r.N, w0, w1-w0)
			} else {
				r.ScheduledAt = findHole(r, rp.ScheduledAt)
				if r.ScheduledAt != rp.ScheduledAt && rpMovable {
					// Delay the parent until the child can be co-allocated
					// (lines 22–24).
					rp.EarliestScheduleAt = r.ScheduledAt
					q.push(rp)
				}
			}

		case request.Next:
			if r.Type == request.Preempt {
				r.ScheduledAt = rp.ScheduledAt + rp.Duration
				w0, w1 := allocWindow(r, t0)
				r.NAlloc = vi.Alloc(r.Cluster, r.N, w0, w1-w0)
			} else {
				r.ScheduledAt = findHole(r, rp.ScheduledAt+rp.Duration)
				if r.ScheduledAt != rp.ScheduledAt+rp.Duration && rpMovable {
					// Delay the parent so the child follows immediately
					// (lines 31–33).
					rp.EarliestScheduleAt = r.ScheduledAt - rp.Duration
					q.push(rp)
				}
			}
		}

		// If scheduledAt has changed, reschedule children (lines 34–35).
		if tBefore != r.ScheduledAt {
			pushChildren(r)
		}
	}

	// Schedule converged; compute the generated view (lines 36–38).
	// The returned view may be nil when nothing was scheduled; a nil View
	// is valid for every read operation.
	for _, r := range rs.All() {
		if r.Fixed {
			continue
		}
		if math.IsInf(r.ScheduledAt, 1) {
			continue // unschedulable; occupies nothing
		}
		sc.rects.add(r.Cluster, r.ScheduledAt, r.Duration, r.NAlloc)
	}
	return sc.rects.flush(nil)
}
