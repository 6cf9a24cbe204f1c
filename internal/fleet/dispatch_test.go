package fleet

import (
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/server"
	"mssr/internal/sim"
)

// TestJobResolvesBeforeRunReturns pins the order in which a fleet job
// finishes a spec: the server's Resolve hook has the worker's result
// before the spec counts toward Run's return. The server settles every
// spec Run returns as a simulation it ran, so a spec whose result was
// still on its way to Resolve, while another dispatch finished the
// job's last spec, lost its worker Source (a cache hit read "run").
func TestJobResolvesBeforeRunReturns(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	got := make(chan string, 2)
	j := &fleetJob{
		hooks: server.JobHooks{Resolve: func(i int, r api.Result) {
			if i == 0 {
				close(entered)
				<-release
			}
			got <- r.Source
		}},
		specs:   make([]sim.Spec, 2),
		results: make([]sim.Result, 2),
		left:    2,
		done:    make(chan struct{}),
	}
	go j.finish(0, api.Result{Source: api.SourceCache})
	<-entered
	j.finish(1, api.Result{Source: api.SourceCache})
	select {
	case <-j.done:
		t.Fatal("the job is done while spec 0's result is still on its way to Resolve")
	default:
	}
	close(release)
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the job never finished")
	}
	for range 2 {
		if src := <-got; src != api.SourceCache {
			t.Errorf("Resolve got source %q, want %q", src, api.SourceCache)
		}
	}
}
