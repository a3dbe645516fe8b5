package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qokit"
)

// Workload sizes. Each is chosen in README.md; clients and ranks are
// capped at the host's processor count.
const (
	labsN, labsP  = 20, 6
	labsAdamIters = 4
	scanN         = 12 // p = 1
	scanGrid      = 32 // γ × β points per side
	scanSlice     = 64 // points per request
	churnN        = 18 // p = 2
	churnProblems = 24
	churnResident = 6   // diagonals the registry budget holds
	churnZipf     = 1.4 // popularity exponent: about 30% of requests miss
	churnPoints   = 4
	churnReplay   = 32 // requests in the exact-count replay
	distN, distP  = 18, 6
	distAdamIters = 6
	// Set-up runs at least minSetups times and until setupBudget has
	// passed, at most maxSetups times; setup_s is the median.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
	// adamStep replaces Adam's default 0.05, which overshoots on LABS
	// within a few iterations (energy rises from the TQA start).
	adamStep = 0.002
	rtol     = 1e-10
)

func clients() int { return min(2, runtime.NumCPU()) }

// target is one registered problem served through the public API, with
// the tracing hooks attached when tr is non-nil. parent and req
// attribute the spans of its build and close.
type target struct {
	reg         *qokit.ProblemRegistry
	key         qokit.ProblemKey
	svc         *qokit.Service
	tr          *tracer
	parent, req int64
	tf          *tracedFactory
	lat         *evalStats
}

// open registers spec in a fresh registry and builds its service: with
// NewRegistryService when untraced, or with the same factories wrapped
// for tracing.
func open(spec qokit.ProblemSpec, opts qokit.RegistryServiceOptions, tr *tracer, parent, req int64) (*target, error) {
	t := &target{reg: qokit.NewProblemRegistry(qokit.RegistryOptions{}), tr: tr, parent: parent, req: req}
	var err error
	start := time.Now()
	t.key, err = t.reg.Register(spec)
	tr.record(tr.newID(), parent, req, "registry.register", start, time.Now())
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if tr == nil {
		t.svc, err = qokit.NewRegistryService(t.reg, t.key, opts)
	} else {
		t.lat = &evalStats{}
		t.svc, t.tf, err = newTracedService(t.reg, t.key, opts, tr, parent, req, t.lat)
	}
	tr.record(tr.newID(), parent, req, "service.build", start, time.Now())
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (t *target) close() {
	start := time.Now()
	t.svc.Close()
	t.tr.record(t.tr.newID(), t.parent, t.req, "service.close", start, time.Now())
}

// request is one client request's timing and outcome.
type request struct {
	lat  time.Duration
	cold bool // the registry ran a precompute during the request
	err  error
}

// call runs fn as one client request: it opens a request span, hands
// fn a context that carries the request to the traced evaluator, and
// classifies the request as cold when the registry's Precomputes
// counter moved while it ran.
func (t *target) call(ctx context.Context, fn func(ctx context.Context) error) request {
	pre := t.reg.Stats().Precomputes
	id := t.tr.newID()
	start := time.Now()
	if t.tr != nil {
		ctx = withReq(ctx, &reqInfo{req: id, span: id, submit: start})
	}
	err := fn(ctx)
	end := time.Now()
	t.tr.record(id, 0, id, "request", start, end)
	return request{lat: end.Sub(start), cold: t.reg.Stats().Precomputes != pre, err: err}
}

// phase accumulates the requests of a timed phase.
type phase struct {
	reqs  []request
	evals int
	start time.Time
	wall  time.Duration
	// liveBytes is the heap the workload holds at the end of the
	// phase, with its registry and service still open.
	liveBytes int64
}

func (p *phase) add(r request, evals int) {
	p.reqs = append(p.reqs, r)
	if r.err == nil {
		p.evals += evals
	}
}

func (p *phase) latencies(keep func(request) bool) []float64 {
	var out []float64
	for _, r := range p.reqs {
		if r.err == nil && keep(r) {
			out = append(out, r.lat.Seconds())
		}
	}
	return out
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.reqs {
		if r.err != nil {
			n++
		}
	}
	return n
}

func (p *phase) firstErr() error {
	for _, r := range p.reqs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

func all(request) bool        { return true }
func coldOnly(r request) bool { return r.cold }
func warmOnly(r request) bool { return !r.cold }

// reportEndToEnd sets the end-to-end metrics every workload reports.
// coldFallback supplies cold-request latencies for workloads whose
// timed phase is all warm (the first request of each set-up).
func reportEndToEnd(rep *report, setups []float64, p *phase, coldFallback []float64, unitWall float64) error {
	rep.attempted += len(p.reqs)
	rep.failed += p.failed()
	cold := p.latencies(coldOnly)
	if len(cold) == 0 {
		cold = coldFallback
	}
	warm := p.latencies(warmOnly)
	lat := p.latencies(all)
	if len(lat) == 0 || len(warm) == 0 || len(cold) == 0 {
		return fmt.Errorf("timed phase completed %d requests (%d warm, %d cold): too few to report", len(lat), len(warm), len(cold))
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("evals_per_s", float64(p.evals)/p.wall.Seconds(), "1/s")
	rep.set("request_p50_s", median(lat), "s")
	rep.set("opt_wall_s", unitWall, "s")
	rep.set("mem_live_bytes", float64(p.liveBytes), "bytes")
	rep.show("request_p90_s", quantile(lat, 0.9), "s")
	rep.show("cold_request_p50_s", median(cold), "s")
	rep.show("warm_request_p50_s", median(warm), "s")
	rep.show("error_rate", float64(p.failed())/float64(len(p.reqs)), "ratio")
	rep.note("samples: setup=%d requests=%d warm=%d cold=%d evals=%d wall=%.3fs error_rate=%d/%d",
		len(setups), len(lat), len(warm), len(cold), p.evals, p.wall.Seconds(), p.failed(), len(p.reqs))
	return nil
}

// layerNames are the spans whose self time the traced run reports.
var layerNames = []string{
	"request", "registry.register", "service.build", "serve.bind",
	"registry.acquire", "serve.queue_wait", "sweep.eval", "grad.eval",
	"service.close", "serve.retire",
}

// reportLayers sets the per-layer metrics that come from the spans of a
// traced run whose timed phase started at phaseStart. Queue wait and
// evaluation cover the phase (and the calls after it); bind and acquire
// also cover the set-up, where the single-service workloads bind. Self
// times cover every span and are divided by the number of requests,
// set-up requests included.
func reportLayers(rep *report, tr *tracer, phaseStart time.Time) {
	var all time.Time // zero: every span
	q := func(name string, since time.Time, f float64) float64 {
		d := tr.durations(name, since)
		if len(d) == 0 {
			return 0
		}
		return quantile(d, f)
	}
	rep.set("registry.acquire_p50_s", q("registry.acquire", all, 0.5), "s")
	rep.set("registry.acquire_p90_s", q("registry.acquire", all, 0.9), "s")
	rep.set("serve.bind_s", q("serve.bind", all, 0.5), "s")
	rep.set("serve.queue_wait_p50_s", q("serve.queue_wait", phaseStart, 0.5), "s")
	rep.set("serve.queue_wait_p90_s", q("serve.queue_wait", phaseStart, 0.9), "s")
	rep.set("sweep.eval_s", q("sweep.eval", phaseStart, 0.5), "s")
	rep.set("grad.eval_s", q("grad.eval", phaseStart, 0.5), "s")
	requests := len(tr.durations("request", all))
	self := tr.selfTimes(all)
	for _, n := range layerNames {
		rep.set("self."+n+"_s", self[n]/float64(max(requests, 1)), "s/request")
	}
	rep.note("spans: acquire=%d bind=%d (with set-up); queue_wait=%d sweep.eval=%d grad.eval=%d (phase); self times are per request over %d requests",
		len(tr.durations("registry.acquire", all)), len(tr.durations("serve.bind", all)),
		len(tr.durations("serve.queue_wait", phaseStart)), len(tr.durations("sweep.eval", phaseStart)),
		len(tr.durations("grad.eval", phaseStart)), requests)
}

// reportRegistry sets the registry and precompute counts of a registry
// whose workload is deterministic (one client, fixed request list).
func reportRegistry(rep *report, st qokit.RegistryStats, residentPeak int64) {
	lookups := st.Hits + st.Misses
	rep.set("costvec.precomputes", float64(st.Precomputes), "count")
	rep.set("registry.lookups", float64(lookups), "count")
	rep.set("registry.hit_ratio", float64(st.Hits)/float64(max(lookups, 1)), "ratio")
	rep.set("registry.evictions", float64(st.Evictions), "count")
	rep.set("registry.resident_bytes", float64(residentPeak), "bytes")
}

// reportServe sets the scheduler counts of a traced phase. slots is the
// number of workers that could have been busy at once (peakWorkers per
// service, times the services open at once).
func reportServe(rep *report, builds, retires int64, peakWorkers, slots int, busy, wall time.Duration) {
	rep.set("serve.builds", float64(builds), "count")
	rep.set("serve.retires", float64(retires), "count")
	rep.set("serve.peak_workers", float64(peakWorkers), "count")
	rep.set("serve.busy_frac", busy.Seconds()/(wall.Seconds()*float64(max(slots, 1))), "ratio")
}

// reportNoCluster zeroes the collective metrics for single-node
// workloads, which run no collectives.
func reportNoCluster(rep *report) {
	for _, n := range []string{"cluster.bytes_per_rank", "cluster.messages_per_rank", "cluster.syncs_per_rank"} {
		rep.set(n, 0, "count/eval")
	}
	rep.set("cluster.comm_wall_frac", 0, "ratio")
}

// reportOverhead compares the untraced and traced throughput of the
// same phase.
func reportOverhead(rep *report, untraced, traced *phase) {
	u := float64(untraced.evals) / untraced.wall.Seconds()
	t := float64(traced.evals) / traced.wall.Seconds()
	rep.set("trace.overhead_frac", u/t-1, "ratio")
	rep.note("tracing overhead: untraced %.4g evals/s, traced %.4g evals/s", u, t)
}

// timePrecompute times the diagonal precompute of terms directly, the
// cost a registry miss pays: the median of up to minSetups runs, as
// many as fit in a second (at least one).
func timePrecompute(n int, terms qokit.Terms) (float64, error) {
	var ts []float64
	start := time.Now()
	for len(ts) == 0 || (len(ts) < minSetups && time.Since(start) < time.Second) {
		t := time.Now()
		if _, err := qokit.PrecomputeDiagonal(n, terms); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// repeatSetups measures a workload's set-up: open builds everything from
// a fresh registry and returns the latency of its first request. All
// but the last target are closed; the last serves the timed phase.
func repeatSetups[T any](open func() (T, time.Duration, error), closeT func(T)) (T, []float64, []float64, error) {
	var last T
	var setups, colds []float64
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		t, first, err := open()
		if err != nil {
			return last, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		colds = append(colds, first.Seconds())
		if i > 0 {
			closeT(last)
		}
		last = t
	}
	return last, setups, colds, nil
}
