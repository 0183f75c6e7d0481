package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	parbs "repro"
)

// TestSimulationRunnerTracedPhasesOverlap: a traced job with a live event
// stream, a progress hook and a cold alone cache runs its alone baselines
// beside the shared run (parallelism 4 overlaps them even on one CPU).
// Under -race this pins that only shared-run heartbeats flush the tracer,
// and the streamed chunks still carry every event of the final log.
func TestSimulationRunnerTracedPhasesOverlap(t *testing.T) {
	spec := testSpec("traced", 1)
	spec.System.Parallelism = 4
	spec.Trace = &TraceSpec{MaxEvents: 1 << 12, Events: true}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	var streamed bytes.Buffer
	sink := Sink{
		Progress:   func(p parbs.Progress) { phases[p.Phase]++ },
		TraceChunk: func(b []byte) { streamed.Write(b) },
	}
	res, err := SimulationRunner(parbs.NewAloneCache())(context.Background(), spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	alone := 0
	for ph := range phases {
		if strings.HasPrefix(ph, "alone:") {
			alone++
		}
	}
	if alone != 4 || phases["measure"] == 0 {
		t.Errorf("heartbeat phases %v, want measure and 4 alone phases", phases)
	}
	// The streamed header goes out before the run, so only the final one
	// carries the event and drop counts; the event lines must match.
	body := func(b []byte) []byte { return b[bytes.IndexByte(b, '\n')+1:] }
	if len(res.TraceEvents) == 0 || !bytes.Equal(body(streamed.Bytes()), body(res.TraceEvents)) {
		t.Errorf("streamed %d trace bytes, final log has %d; want the same event lines", streamed.Len(), len(res.TraceEvents))
	}
}
