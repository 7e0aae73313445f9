package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// toy shrinks a workload so every code path runs in about a second.
func toy(w workload) workload {
	w.sellers = min(w.sellers, 4)
	w.rows = min(w.rows, 60)
	w.tradesPerMarket = min(w.tradesPerMarket, 6)
	w.probeTrades = min(w.probeTrades, 4)
	w.extraSetups = min(w.extraSetups, 1)
	if w.nHi > 200 {
		w.nLo, w.nHi = 40, 80
	}
	return w
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at toy size, untraced
// and traced, and requires exactly the metrics BENCHMARK.json declares, each
// finite and in its declared unit, with zero failed operations.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(context.Background(), toy(w), 7, time.Second, traced, root, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%t: metric %s = %v", w.name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%t: metric %s in %q, declared %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestDigestRepeats requires the same seed to give the same digest, and the
// checks to reject a quote that breaks Eq. 25.
func TestDigestRepeats(t *testing.T) {
	tf, err := lookupWorkload("trade_fresh")
	if err != nil {
		t.Fatal(err)
	}
	w := toy(tf)
	var digests []string
	for i := 0; i < 2; i++ {
		e, err := boot(context.Background(), w, makeInputs(w, 3), t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := runEpisode(context.Background(), httpDriver{e}, w, makeInputs(w, 3), false)
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		dg := newDigest()
		digestTrades(dg, ep.outs)
		digests = append(digests, dg.sum())
	}
	if digests[0] != digests[1] {
		t.Errorf("same seed, different digests: %v", digests)
	}
	d := makeInputs(w, 3).demands[0]
	chi := []float64{d.N / 2, d.N / 2}
	if err := checkQuote(d, quoteOut{pm: 2, pd: d.V, chi: chi}); err != nil {
		t.Errorf("a quote satisfying Eq. 25 failed: %v", err)
	}
	if err := checkQuote(d, quoteOut{pm: 2, pd: d.V * 1.01, chi: chi}); err == nil {
		t.Error("a quote breaking Eq. 25 passed")
	}
}
