package track

import (
	"testing"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
)

// TestController runs one case per rule of the edge decision. There is
// no clock and no I/O: each case drives a controller with windows,
// downloaded sets and failures by hand.
func TestController(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	// A low δ retrieves a set large enough that H is not its floor.
	res, err := search.NewSearcher(f.store, search.Params{Delta: 0.5}).Algorithm1(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) < 8 {
		t.Fatalf("fixture retrieved only %d matches", len(res.Matches))
	}
	good := Set{Store: f.store, Matches: res.Matches}
	empty := Set{Store: mdb.NewStore()}
	// keep tracks every signal: no area exceeds the threshold.
	keep := Params{AreaThreshold: 1e300}
	fresh := func(p Params) (*Controller, *Predictor) {
		pred := NewPredictor(PredictorParams{})
		return NewController(pred, p, 3), pred
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"first call uploads once nothing is tracked or in flight", func(t *testing.T) {
			c, _ := fresh(Params{})
			d := c.Step(wins[0], false)
			if !d.Upload || !d.First || d.Tracked || d.Seq != 0 || d.Priority != proto.PriRoutine {
				t.Fatalf("first step: %+v", d)
			}
			if d := c.Step(wins[1], true); d.Upload || d.Tracked || d.Seq != 1 {
				t.Fatalf("step with the first call in flight: %+v", d)
			}
		}},
		{"H is capped at half the set, at least 2", func(t *testing.T) {
			c, _ := fresh(Params{})
			for _, tc := range []struct{ n, h int }{{100, 20}, {10, 5}, {3, 2}, {0, 2}} {
				if h := c.ParamsFor(tc.n, 0).TrackThreshold; h != tc.h {
					t.Errorf("%d matches: H = %d, want %d", tc.n, h, tc.h)
				}
			}
			c, _ = fresh(Params{TrackThreshold: 8, HorizonWindows: 5})
			if p := c.ParamsFor(100, 7); p.TrackThreshold != 8 || p.HorizonWindows != 5 {
				t.Errorf("configured H and horizon: %+v", p)
			}
			c, _ = fresh(Params{})
			if p := c.ParamsFor(100, 7); p.HorizonWindows != 7 {
				t.Errorf("the set's horizon did not apply: %+v", p)
			}
		}},
		{"an adopted set skips the windows its search missed", func(t *testing.T) {
			c, _ := fresh(keep)
			c.Step(wins[0], false)
			c.Step(wins[1], true)
			c.Step(wins[2], true)
			if !c.Adopt(good, 0) {
				t.Fatal("set not adopted")
			}
			ref := NewTracker(good.Store, good.Matches, c.ParamsFor(len(good.Matches), 0))
			ref.Skip(2)
			want := ref.Step(wins[3])
			d := c.Step(wins[3], false)
			d.Elapsed, want.Elapsed = 0, 0
			if !d.Tracked || d.StepResult != want || d.Iteration != 3 {
				t.Fatalf("step after adoption %+v, want %+v", d.StepResult, want)
			}
		}},
		{"a set below H recalls unless a set is in flight", func(t *testing.T) {
			c, _ := fresh(keep)
			c.Step(wins[0], false)
			c.Adopt(Set{Store: f.store, Matches: res.Matches[:1]}, 0)
			if d := c.Step(wins[1], true); !d.NeedsCloud || d.Upload {
				t.Fatalf("in flight: %+v", d)
			}
			if d := c.Step(wins[2], false); !d.NeedsCloud || !d.Upload || d.First {
				t.Fatalf("nothing in flight: %+v", d)
			}
		}},
		{"the horizon recalls with the margin left", func(t *testing.T) {
			c, _ := fresh(Params{AreaThreshold: 1e300, HorizonWindows: 8})
			c.Step(wins[0], false)
			c.Adopt(good, 0)
			for i := 1; i <= 5; i++ {
				d := c.Step(wins[i], false)
				if d.NeedsCloud || d.Upload != (i == 5) {
					t.Fatalf("iteration %d (horizon left %d): %+v", i, 8-i, d)
				}
			}
		}},
		{"a set landing past its horizon is not adopted and the next step recalls", func(t *testing.T) {
			c, _ := fresh(keep)
			c.Step(wins[0], false)
			c.Adopt(Set{Store: f.store, Matches: res.Matches, Horizon: 100}, 0)
			if d := c.Step(wins[1], false); d.Upload {
				t.Fatalf("recall with 99 windows of horizon left: %+v", d)
			}
			c.Step(wins[2], true)
			c.Step(wins[3], true)
			spent := Set{Store: f.store, Matches: res.Matches, Horizon: 2}
			if c.Adopt(spent, 1) {
				t.Fatal("a set searched 2 windows back with a 2-window horizon was adopted")
			}
			d := c.Step(wins[4], false)
			if !d.Upload || !d.Tracked || d.Iteration != 4 {
				t.Fatalf("step after the spent set: %+v (want a recall, the old set at iteration 4)", d)
			}
			if d := c.Step(wins[5], false); d.Upload {
				t.Fatalf("the forced recall repeated: %+v", d)
			}
			if c.LastGood().Horizon != 2 {
				t.Fatal("the spent set's picture did not become the fallback")
			}
		}},
		{"an empty set never replaces the fallback", func(t *testing.T) {
			c, _ := fresh(keep)
			c.Step(wins[0], false)
			c.Adopt(empty, 0)
			if c.LastGood().Store != empty.Store {
				t.Fatal("with no fallback yet, the empty set did not become it")
			}
			c.Adopt(good, 0)
			c.Adopt(empty, 0)
			if lg := c.LastGood(); lg.Store != good.Store || len(lg.Matches) != len(good.Matches) {
				t.Fatalf("fallback is %d matches, want the %d of the last good set", len(lg.Matches), len(good.Matches))
			}
			if d := c.Step(wins[1], false); d.Remaining != 0 || !d.Upload {
				t.Fatalf("the empty set is not the live one: %+v", d)
			}
		}},
		{"degraded mode re-arms the fallback after an empty set", func(t *testing.T) {
			c, pred := fresh(keep)
			c.Step(wins[0], false)
			c.Adopt(good, 0)
			c.Fail()
			c.Adopt(empty, 0) // lands just before the outage
			if c.Degraded() {
				t.Fatal("still degraded after adopting a fresh set")
			}
			c.Fail()
			want := NewTracker(good.Store, good.Matches, c.ParamsFor(len(good.Matches), 0))
			d := c.Step(wins[1], false)
			if d.Remaining != want.Remaining() || d.PA != want.PA() || !d.NeedsCloud {
				t.Fatalf("re-armed step %+v, want %d signals at P_A %g", d.StepResult, want.Remaining(), want.PA())
			}
			if !d.Upload || d.Priority != proto.PriAnomaly {
				t.Fatalf("degraded recall: %+v", d)
			}
			if h := pred.History(); len(h) != 1 || h[0] != want.PA() {
				t.Fatalf("predictor saw %v", h)
			}
		}},
		{"an anomalous or degraded channel uploads at anomaly priority", func(t *testing.T) {
			c, pred := fresh(Params{})
			for range 3 {
				pred.Observe(1)
			}
			if d := c.Step(wins[0], false); !d.Anomalous || d.Priority != proto.PriAnomaly {
				t.Fatalf("anomalous: %+v", d)
			}
			c, _ = fresh(Params{})
			c.Fail()
			if d := c.Step(wins[0], false); d.Anomalous || d.Priority != proto.PriAnomaly {
				t.Fatalf("degraded: %+v", d)
			}
		}},
		{"P_A is observed only while signals remain", func(t *testing.T) {
			c, pred := fresh(keep)
			c.Step(wins[0], false)
			c.Adopt(good, 0)
			c.Step(wins[1], false)
			c.Adopt(empty, 1)
			d := c.Step(wins[2], false)
			if !d.Tracked || d.Remaining != 0 {
				t.Fatalf("empty step: %+v", d)
			}
			if n := len(pred.History()); n != 1 {
				t.Fatalf("predictor holds %d observations, want 1", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}

	t.Run("a step allocates nothing", func(t *testing.T) {
		c, _ := fresh(keep)
		c.Step(wins[0], false)
		c.Adopt(good, 0)
		next := 1
		if allocs := testing.AllocsPerRun(50, func() {
			c.Step(wins[next%len(wins)], true)
			next++
		}); allocs != 0 {
			t.Fatalf("a controller step allocates %.0f times", allocs)
		}
	})
}
