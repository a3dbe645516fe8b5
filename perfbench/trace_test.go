package main

import (
	"math"
	"testing"
	"time"
)

// TestSelfTimes checks the self-time rule on one batch request: the two
// points' queue waits overlap each other and the first evaluation, so
// each name's spans are merged before their children are subtracted.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	req := tr.newID()
	tr.record(req, 0, req, "request", at(0), at(100))
	tr.record(tr.newID(), req, req, "serve.queue_wait", at(0), at(30))
	tr.record(tr.newID(), req, req, "serve.queue_wait", at(0), at(60))
	tr.record(tr.newID(), req, req, "sweep.eval", at(30), at(50))
	tr.record(tr.newID(), req, req, "sweep.eval", at(60), at(90))

	want := map[string]float64{"request": 0.010, "serve.queue_wait": 0.060, "sweep.eval": 0.050}
	got := tr.selfTimes(tr.epoch)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	// Spans before the phase start are left out.
	if got := tr.selfTimes(at(1)); got["request"] != 0 || got["serve.queue_wait"] != 0 {
		t.Errorf("spans starting before the phase counted: %v", got)
	}
}
