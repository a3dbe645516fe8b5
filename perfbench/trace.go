package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qokit"
	"qokit/internal/core"
	"qokit/internal/distsim"
	"qokit/internal/evaluator"
	"qokit/internal/sweep"
)

// Spans are recorded only in the benchmark's own code, around the
// calls it makes into each layer: the client request, the serve
// queue (submit to evaluator entry), evaluator bind/retire, the
// registry acquire, and each evaluation. They stay in memory and are
// written out once, when the run ends.

// span is one timed interval. Start and End are offsets from the
// tracer's epoch; Parent is 0 for a root span; Req groups the spans
// of one client request (or of one set-up).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so the
// untraced run calls the same code with tracing off.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name a parent that has not
// ended yet. A nil tracer hands out 0.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// durations returns the durations of the spans with the given name
// that started at or after since.
func (t *tracer) durations(name string, since time.Time) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	from := int64(since.Sub(t.epoch))
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes sums, per span name, the time spans of that name cover
// minus the part their children cover, over the spans that started at
// or after since. Spans of one name within one request are merged
// first, so the overlapping points of a batch count once: the result is
// each layer's share of the requests' wall time.
func (t *tracer) selfTimes(since time.Time) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	from := int64(since.Sub(t.epoch))
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.Start >= from {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type group struct {
		req  int64
		name string
	}
	spans := make(map[group][]span)
	for _, s := range t.spans {
		if s.Start < from {
			continue
		}
		g := group{s.Req, s.Name}
		spans[g] = append(spans[g], s)
	}
	self := make(map[string]float64)
	for g, ss := range spans {
		var kids []span
		for _, s := range ss {
			for _, k := range children[s.ID] {
				k.Start, k.End = max(k.Start, s.Start), min(k.End, s.End)
				kids = append(kids, k)
			}
		}
		self[g.name] += float64(unionNs(ss)-unionNs(kids)) / 1e9
	}
	return self
}

// unionNs is the length of the union of the spans' intervals.
func unionNs(ss []span) int64 {
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		if s.End > s.Start {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// reqKey carries a request's identity through the service: serve hands
// each task's context to the evaluator, so the traced evaluator can
// time the queue wait from the client's submit.
type reqKey struct{}

type reqInfo struct {
	req, span int64
	submit    time.Time
}

func withReq(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, reqKey{}, ri)
}

// tracedFactory wraps the factory NewRegistryService would build, with
// spans around bind (Factory.New), retire and the registry acquire.
type tracedFactory struct {
	f           evaluator.Factory
	tr          *tracer
	parent, req int64
	bindSpan    atomic.Int64
	builds      atomic.Int64
	retires     atomic.Int64
	built       []evaluator.Evaluator // guarded by mu
	mu          sync.Mutex
	lat         *evalStats
}

func (f *tracedFactory) Caps() evaluator.Caps { return f.f.Caps() }

func (f *tracedFactory) New(ctx context.Context) (evaluator.Evaluator, error) {
	id := f.tr.newID()
	f.bindSpan.Store(id)
	start := time.Now()
	ev, err := f.f.New(ctx)
	f.tr.record(id, f.parent, f.req, "serve.bind", start, time.Now())
	if err != nil {
		return nil, err
	}
	f.builds.Add(1)
	f.mu.Lock()
	f.built = append(f.built, ev)
	f.mu.Unlock()
	return &tracedEvaluator{ev: ev, tr: f.tr, lat: f.lat}, nil
}

func (f *tracedFactory) Retire(ev evaluator.Evaluator) error {
	te, ok := ev.(*tracedEvaluator)
	if !ok {
		return fmt.Errorf("perfbench: retire of an evaluator the traced factory did not build")
	}
	start := time.Now()
	err := f.f.Retire(te.ev)
	f.tr.record(f.tr.newID(), f.parent, f.req, "serve.retire", start, time.Now())
	f.retires.Add(1)
	return err
}

// acquire is the timed registry acquire the traced factories lease
// their diagonal through (the same call NewRegistryService's factories
// make).
func (f *tracedFactory) acquire(reg *qokit.ProblemRegistry, key qokit.ProblemKey) core.AcquireFunc {
	return func(ctx context.Context) (core.DiagSource, error) {
		start := time.Now()
		h, err := reg.Acquire(ctx, key)
		end := time.Now()
		f.tr.record(f.tr.newID(), f.bindSpan.Load(), f.req, "registry.acquire", start, end)
		if err != nil {
			return nil, err
		}
		return h, nil
	}
}

// engines returns the evaluators the factory has built (unwrapped).
func (f *tracedFactory) engines() []evaluator.Evaluator {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]evaluator.Evaluator(nil), f.built...)
}

// newTracedService builds the service NewRegistryService would build
// for opts — the same factory constructors and NewElasticService — with
// the factory wrapped for tracing.
func newTracedService(reg *qokit.ProblemRegistry, key qokit.ProblemKey, opts qokit.RegistryServiceOptions, tr *tracer, parent, req int64, lat *evalStats) (*qokit.Service, *tracedFactory, error) {
	spec, err := reg.Spec(key)
	if err != nil {
		return nil, nil, err
	}
	tf := &tracedFactory{tr: tr, parent: parent, req: req, lat: lat}
	acquire := tf.acquire(reg, key)
	if opts.Distributed != nil {
		d := *opts.Distributed
		d.Mixer, d.HammingWeight = spec.Mixer, spec.HammingWeight
		tf.f, err = distsim.NewFactoryFromSource(spec.N, d, acquire)
		if err != nil {
			return nil, nil, err
		}
	} else {
		o := opts.Simulator
		o.Mixer, o.HammingWeight = spec.Mixer, spec.HammingWeight
		tf.f = sweep.NewFactory(core.NewFactory(spec.N, o, acquire), sweep.Options{Workers: opts.WorkersPerBuild})
	}
	svc, err := qokit.NewElasticService([]qokit.EvaluatorFactory{tf}, opts.Elastic)
	if err != nil {
		return nil, nil, err
	}
	return svc, tf, nil
}

// evalStats accumulates evaluator busy time across traced evaluators.
type evalStats struct {
	busyNs atomic.Int64
	evals  atomic.Int64
}

// tracedEvaluator times each evaluation and the queue wait before it.
type tracedEvaluator struct {
	ev  evaluator.Evaluator
	tr  *tracer
	lat *evalStats
}

func (e *tracedEvaluator) Caps() evaluator.Caps { return e.ev.Caps() }

func (e *tracedEvaluator) Energy(ctx context.Context, x []float64) (float64, error) {
	start := time.Now()
	v, err := e.ev.Energy(ctx, x)
	e.done(ctx, "sweep.eval", start, time.Now())
	return v, err
}

func (e *tracedEvaluator) EnergyGrad(ctx context.Context, x, g []float64) (float64, error) {
	start := time.Now()
	v, err := e.ev.EnergyGrad(ctx, x, g)
	e.done(ctx, "grad.eval", start, time.Now())
	return v, err
}

func (e *tracedEvaluator) done(ctx context.Context, name string, start, end time.Time) {
	if e.lat != nil {
		e.lat.busyNs.Add(int64(end.Sub(start)))
		e.lat.evals.Add(1)
	}
	ri, _ := ctx.Value(reqKey{}).(*reqInfo)
	if ri == nil {
		return
	}
	e.tr.record(e.tr.newID(), ri.span, ri.req, "serve.queue_wait", ri.submit, start)
	e.tr.record(e.tr.newID(), ri.span, ri.req, name, start, end)
}
