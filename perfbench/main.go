// Command perfbench is the Share market service's benchmark: it hosts
// httpapi.Server in-process on a loopback listener, configured as
// `share-server -snapshot-dir DIR` boots it, drives it through
// httpapi.Client, checks every answer, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: quote_analytic, trade_aging, trade_fresh (see workload.go and
// README.md). The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines above it
// report per-kind operation counts and the output digest. The run exits
// non-zero when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"share/internal/obs"
	"share/internal/solve"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "measured window, seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ".bench_build", os.Stdout)
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload run under root (created if missing; every data
// directory it makes there is removed before it returns). A non-nil result
// with a non-nil error means a correctness check failed.
func run(ctx context.Context, w workload, seed int64, window time.Duration, traced bool, root string, out io.Writer) (*result, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	in := makeInputs(w, seed)
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%t\n", w.name, seed, window.Seconds(), traced)
	var res *result
	if traced {
		res, err = runTraced(ctx, w, in, window, root, out)
	} else {
		res, err = runE2E(ctx, w, in, window, root, out)
	}
	if res != nil && errors.Is(err, errCheck) {
		res.Correct = false
	}
	return res, err
}

// legMode selects how a leg reaches the markets.
type legMode int

const (
	modeHTTP   legMode = iota // httpapi.Client over loopback, plain handler
	modeTraced                // same, with handler spans
	modeProc                  // pool.Market calls in process
)

// leg is one execution of a workload's script on a freshly booted server.
type leg struct {
	setup          time.Duration
	quotes, trades *opStats
	tradeWall      time.Duration
	diskBytes      float64
	digest         string
	tradeOuts      []tradeOut
	p50s, rates    []float64 // per-slice quote p50 and throughput (end-to-end run)
	rssPeaks       []float64 // peak RSS of each second of the script, MB

	// Observed around the script (not the set-up).
	counters       map[string]float64 // registry counter deltas
	batchMax       float64            // wal/batch_max gauge at the end
	fsyncMS        float64            // mean wal/fsync over the server's life
	allocBytes     float64            // MemStats.TotalAlloc delta
	gcPauseNs      float64            // MemStats.PauseTotalNs delta
	heapInuse      float64            // MemStats.HeapInuse at the end
	handlerSpans   map[string][]time.Duration
	procSpans      map[string][]time.Duration
	checkpointMS   float64
	checkpointKB   float64
	precomputeMS   float64
	scriptDuration time.Duration
}

// add folds another run of the same script into l: counts, spans and
// deltas accumulate; end-of-script states (gauges, heap, checkpoint,
// precompute) are the later run's.
func (l *leg) add(o *leg) {
	l.quotes.merge(o.quotes)
	l.trades.merge(o.trades)
	l.tradeWall += o.tradeWall
	l.diskBytes += o.diskBytes
	l.tradeOuts = append(l.tradeOuts, o.tradeOuts...)
	for k, v := range o.counters {
		l.counters[k] += v
	}
	for k, v := range o.handlerSpans {
		l.handlerSpans[k] = append(l.handlerSpans[k], v...)
	}
	for k, v := range o.procSpans {
		l.procSpans[k] = append(l.procSpans[k], v...)
	}
	l.batchMax = max(l.batchMax, o.batchMax)
	l.fsyncMS, l.heapInuse = o.fsyncMS, o.heapInuse
	l.allocBytes += o.allocBytes
	l.gcPauseNs += o.gcPauseNs
	l.checkpointMS, l.checkpointKB, l.precomputeMS = o.checkpointMS, o.checkpointKB, o.precomputeMS
	l.scriptDuration += o.scriptDuration
}

// counterDeltas is every registry counter's change from a to b.
func counterDeltas(a, b obs.Snapshot) map[string]float64 {
	d := make(map[string]float64, len(b.Counters))
	for label, v := range b.Counters {
		d[label] = float64(v) - float64(a.Counters[label])
	}
	return d
}

// runLeg boots a server and runs the workload's script on it: for a quote
// workload a warm-up, then a quote window (until deadline, or count quotes
// when count > 0), then probe trades when probe is set; for a trade
// workload one episode, with probe quotes when probe is set.
func runLeg(ctx context.Context, mode legMode, w workload, in inputs, root string, window time.Duration, count int, probe bool) (*leg, error) {
	e, err := boot(ctx, w, in, root, mode == modeTraced)
	if err != nil {
		return nil, err
	}
	defer e.close()
	var drv driver = httpDriver{e}
	var pd *procDriver
	if mode == modeProc {
		pd = newProcDriver(e)
		pd.inlineSolve = w.quoteClients == 0
		drv = pd
	}
	l := &leg{setup: e.setupDur, quotes: &opStats{}, trades: &opStats{}}
	dg := newDigest()

	if w.quoteClients > 0 {
		warm := time.Now().Add(min(window/10, 500*time.Millisecond))
		if _, _, err := quoteWindow(ctx, drv, in, w.quoteClients, warm, 0, nil); err != nil {
			return l, err
		}
		if pd != nil {
			pd.spans = make(map[string][]time.Duration)
		}
		if e.handler != nil {
			e.handler.reset()
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	reg0 := e.srv.Metrics().Snapshot()
	disk0, err := writeBytes()
	if err != nil {
		return l, err
	}
	rss := startRSS(time.Second)
	defer rss.finish()
	start := time.Now()
	if w.quoteClients > 0 {
		// The untraced end-to-end run (no probes) keeps only per-slice
		// statistics of its quotes; the traced run's legs keep every timing.
		var slc *slicer
		if mode == modeHTTP && !probe {
			slc = newSlicer(time.Now())
		}
		st, kept, err := quoteWindow(ctx, drv, in, w.quoteClients, time.Now().Add(window), count, slc)
		l.quotes = st
		if slc != nil {
			l.p50s, l.rates = slc.finish(time.Now())
		}
		if err != nil {
			return l, err
		}
		for _, q := range kept {
			dg.floats(q.pm, q.pd)
		}
		if pd != nil {
			pd.solveOnly = true
			_, _, err := quoteWindow(ctx, pd, in, w.quoteClients, time.Time{}, count, nil)
			pd.solveOnly = false
			if err != nil {
				return l, err
			}
		}
		if probe && w.probeTrades > 0 {
			pw := w
			pw.tradesPerMarket = w.probeTrades
			ep, err := runEpisode(ctx, drv, pw, in, false)
			if ep != nil {
				l.trades, l.tradeWall, l.tradeOuts = ep.trades, ep.wall, ep.outs
				digestTrades(dg, ep.outs)
			}
			if err != nil {
				return l, err
			}
		}
	} else {
		ep, err := runEpisode(ctx, drv, w, in, probe && w.probeQuotes)
		if ep != nil {
			l.trades, l.quotes, l.tradeWall, l.tradeOuts = ep.trades, ep.quotes, ep.wall, ep.outs
			digestTrades(dg, ep.outs)
		}
		if err != nil {
			return l, err
		}
	}
	l.scriptDuration = time.Since(start)
	if l.rssPeaks, err = rss.finish(); err != nil {
		return l, err
	}
	disk1, err := writeBytes()
	if err != nil {
		return l, err
	}
	l.diskBytes = disk1 - disk0
	runtime.ReadMemStats(&mem1)
	l.allocBytes = float64(mem1.TotalAlloc - mem0.TotalAlloc)
	l.gcPauseNs = float64(mem1.PauseTotalNs - mem0.PauseTotalNs)
	l.heapInuse = float64(mem1.HeapInuse)
	reg1 := e.srv.Metrics().Snapshot()
	l.counters = counterDeltas(reg0, reg1)
	l.batchMax = float64(reg1.Gauges["wal/batch_max"])
	l.fsyncMS = reg1.Endpoints["wal/fsync"].Latency.MeanSeconds * 1e3
	for j := range e.ids {
		ws, err := drv.weights(ctx, j)
		if err != nil {
			return l, err
		}
		dg.floats(ws...)
	}
	l.digest = dg.sum()
	if pd != nil {
		l.procSpans = pd.spans
		if err := l.measureState(e); err != nil {
			return l, err
		}
	}
	if mode == modeHTTP && w.restore {
		if err := e.restoreCheck(); err != nil {
			return l, fmt.Errorf("%w: %v", errCheck, err)
		}
	}
	if e.handler != nil {
		e.stopHTTP() // every handler span is recorded once the server is down
		l.handlerSpans = e.handler.spans
	}
	return l, nil
}

func digestTrades(dg *digest, outs []tradeOut) {
	for _, t := range outs {
		dg.floats(float64(t.round), t.quote.pm, t.quote.pd)
	}
}

// measureState times what a checkpoint and a view publish cost on market 0
// as the script left it: Market.Snapshot plus its JSON encoding, and
// Backend.Precompute for every registered backend.
func (l *leg) measureState(e *env) error {
	m := e.market(0)
	var cps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		raw, err := json.Marshal(m.Snapshot())
		if err != nil {
			return err
		}
		cps = append(cps, ms(time.Since(t0)))
		l.checkpointKB = float64(len(raw)) / 1024
	}
	l.checkpointMS = median(cps)

	proto, ok := m.View().Protos[solve.DefaultName]
	if !ok {
		return errors.New("market view has no default prototype")
	}
	g := proto.Clone().Game()
	var reps int
	t0 := time.Now()
	for reps == 0 || (time.Since(t0) < 100*time.Millisecond && reps < 1000) {
		for _, name := range solve.Names() {
			b, err := solve.Lookup(name)
			if err != nil {
				return err
			}
			if _, err := b.Precompute(g); err != nil {
				return err
			}
		}
		reps++
	}
	l.precomputeMS = ms(time.Since(t0)) / float64(reps)
	return nil
}

// report prints per-kind operation counts and returns the totals.
func report(out io.Writer, kinds map[string]*opStats) (attempted, failed int) {
	for _, k := range []string{"quote", "trade"} {
		st := kinds[k]
		if st == nil || st.attempted == 0 {
			continue
		}
		fmt.Fprintf(out, "ops kind=%s attempted=%d succeeded=%d failed=%d\n", k, st.attempted, st.attempted-st.failed, st.failed)
		if st.firstErr != nil {
			fmt.Fprintf(out, "ops kind=%s first_error=%q\n", k, st.firstErr.Error())
		}
		attempted += st.attempted
		failed += st.failed
	}
	return attempted, failed
}

// abort ends a run whose leg failed. A correctness failure still yields a
// result, with correct=false and the operations counted so far.
func abort(out io.Writer, kinds map[string]*opStats, err error) (*result, error) {
	attempted, failed := report(out, kinds)
	if errors.Is(err, errCheck) {
		return &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}, err
	}
	return nil, err
}

// runE2E is the untraced run. Quote workloads time one window of closed-
// loop quotes; trade workloads run episodes until the window is used, each
// on a fresh server with the same inputs, so every episode must produce the
// same digest.
func runE2E(ctx context.Context, w workload, in inputs, window time.Duration, root string, out io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < w.extraSetups; i++ {
		e, err := boot(ctx, w, in, root, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, e.setupDur.Seconds())
		e.close()
	}
	kinds := map[string]*opStats{"quote": {}, "trade": {}}
	var digests []string
	var rss, p50s, rates []float64
	deadline := time.Now().Add(window)
	for ep := 0; ep == 0 || (w.tradesPerMarket > 0 && time.Now().Before(deadline)); ep++ {
		runtime.GC()
		l, err := runLeg(ctx, modeHTTP, w, in, root, window, 0, false)
		if l != nil {
			kinds["quote"].merge(l.quotes)
			kinds["trade"].merge(l.trades)
		}
		if err != nil {
			return abort(out, kinds, err)
		}
		setups = append(setups, l.setup.Seconds())
		rss = append(rss, l.rssPeaks...)
		if w.quoteClients > 0 {
			p50s, rates = l.p50s, l.rates
		} else {
			p50s = append(p50s, quantile(l.trades.lat, 0.50))
			rates = append(rates, float64(len(l.trades.lat))/l.tradeWall.Seconds())
		}
		digests = append(digests, l.digest)
		fmt.Fprintf(out, "episode=%d digest=%s setup_s=%.4f", ep, l.digest, l.setup.Seconds())
		if n := len(l.trades.lat); n > 0 {
			fmt.Fprintf(out, " disk_bytes_per_trade=%.0f trade_p50_ms=%.3f trade_per_s=%.2f",
				l.diskBytes/float64(n), quantile(l.trades.lat, 0.5), float64(n)/l.tradeWall.Seconds())
		}
		fmt.Fprintln(out)
	}
	attempted, failed := report(out, kinds)
	fmt.Fprintf(out, "digest=%s\n", digests[0])
	res := &result{Correct: true, Attempted: attempted, Failed: failed}
	for _, d := range digests[1:] {
		if d != digests[0] {
			return res, fmt.Errorf("%w: episode digests differ: %v", errCheck, digests)
		}
	}
	res.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"p50_ms":      {median(p50s), "ms"},
		"ops_per_s":   {median(rates), "1/s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
	return res, nil
}

// runTraced is the traced run: the script runs three times on fresh
// servers built from the same inputs — untraced over HTTP, traced over HTTP
// (client and handler spans), and in process (spans around pool.Market
// calls) — and every leg must produce the same digest.
func runTraced(ctx context.Context, w workload, in inputs, window time.Duration, root string, out io.Writer) (*result, error) {
	part := window / 4
	kinds := map[string]*opStats{"quote": {}, "trade": {}}
	var legs [3]*leg
	for i, mode := range []legMode{modeHTTP, modeTraced, modeProc} {
		count := 0
		if mode == modeProc && w.quoteClients > 0 {
			count = legs[1].quotes.attempted // replay the traced leg's quotes
		}
		// A trade workload repeats its episode until the leg's share of the
		// window is used; every repeat must give the same digest.
		start := time.Now()
		for legs[i] == nil || (w.tradesPerMarket > 0 && time.Since(start) < part) {
			runtime.GC()
			l, err := runLeg(ctx, mode, w, in, root, part, count, true)
			if l != nil {
				kinds["quote"].merge(l.quotes)
				kinds["trade"].merge(l.trades)
			}
			if err != nil {
				return abort(out, kinds, err)
			}
			fmt.Fprintf(out, "leg=%d digest=%s\n", i, l.digest)
			if legs[i] == nil {
				legs[i] = l
				continue
			}
			if l.digest != legs[i].digest {
				return abort(out, kinds, fmt.Errorf("%w: leg %d repeats differ: %s %s", errCheck, i, legs[i].digest, l.digest))
			}
			legs[i].add(l)
		}
	}
	attempted, failed := report(out, kinds)
	res := &result{Correct: true, Attempted: attempted, Failed: failed}
	if legs[0].digest != legs[1].digest || legs[1].digest != legs[2].digest {
		return res, fmt.Errorf("%w: leg digests differ: %s %s %s", errCheck, legs[0].digest, legs[1].digest, legs[2].digest)
	}
	fmt.Fprintf(out, "digest=%s\n", legs[0].digest)
	res.Metrics = perLayer(w, legs[0], legs[1], legs[2])
	return res, nil
}

// perLayer turns the three legs into per-layer metrics. Each layer's self
// time is a difference of span means, so the self times of an operation
// telescope to the traced client mean: transport + httpapi + pool + solve
// for a quote, transport + httpapi + pool + round for a trade.
func perLayer(w workload, u, t, p *leg) map[string]metric {
	qClient, tClient := meanMS(t.quotes.svc), meanMS(t.trades.svc)
	qHandler, tHandler := meanMS(t.handlerSpans["handler.quote"]), meanMS(t.handlerSpans["handler.trade"])
	sp := p.procSpans
	poolQ, solveQ := meanMS(sp["pool.quote"]), meanMS(sp["solve.solve"])
	// The trade's round time comes from the traced leg's own responses
	// (total_seconds), so the round's leg-to-leg variation does not leak into
	// the small httpapi and pool self times; the round's phases and the
	// pool's own share come from the in-process leg.
	var rounds []time.Duration
	for _, o := range t.tradeOuts {
		rounds = append(rounds, o.total)
	}
	round, roundP := meanMS(rounds), meanMS(sp["market.round"])
	poolSelf := meanMS(sp["pool.trade"]) - roundP
	children := meanMS(sp["market.solve"]) + meanMS(sp["ldp.perturb"]) + meanMS(sp["product.build"]) + meanMS(sp["valuation.shapley"])

	trades := float64(max(1, len(t.trades.lat)))
	ops := float64(max(1, len(t.trades.lat)+len(t.quotes.lat)))
	var rejected float64
	for label, v := range t.counters {
		if strings.HasSuffix(label, "/trades_rejected") {
			rejected += v
		}
	}
	late := append(append([]time.Duration(nil), t.quotes.late...), t.trades.late...)
	// Tracing overhead: the workload's primary operation, traced against
	// untraced client mean.
	prim, primU := qClient, meanMS(u.quotes.svc)
	if w.quoteClients == 0 {
		prim, primU = tClient, meanMS(u.trades.svc)
	}

	return map[string]metric{
		"quote.client_ms":         {qClient, "ms"},
		"quote.client_p50_ms":     {quantile(t.quotes.svc, 0.5), "ms"},
		"quote.client_p90_ms":     {quantile(t.quotes.svc, 0.9), "ms"},
		"http.quote_transport_ms": {qClient - qHandler, "ms"},
		"httpapi.quote_self_ms":   {qHandler - poolQ, "ms"},
		"pool.quote_ms":           {poolQ, "ms"},
		"pool.quote_p50_ms":       {quantile(sp["pool.quote"], 0.5), "ms"},
		"pool.quote_self_ms":      {poolQ - solveQ, "ms"},
		"solve.solve_ms":          {solveQ, "ms"},
		"solve.solve_p50_ms":      {quantile(sp["solve.solve"], 0.5), "ms"},
		"solve.precompute_ms":     {p.precomputeMS, "ms"},

		"trade.client_ms":          {tClient, "ms"},
		"trade.client_p50_ms":      {quantile(t.trades.svc, 0.5), "ms"},
		"trade.client_p90_ms":      {quantile(t.trades.svc, 0.9), "ms"},
		"http.trade_transport_ms":  {tClient - tHandler, "ms"},
		"httpapi.trade_self_ms":    {tHandler - round - poolSelf, "ms"},
		"pool.trade_self_ms":       {poolSelf, "ms"},
		"market.round_ms":          {round, "ms"},
		"market.round_p50_ms":      {quantile(rounds, 0.5), "ms"},
		"market.self_ms":           {roundP - children, "ms"},
		"market.solve_ms":          {meanMS(sp["market.solve"]), "ms"},
		"ldp.perturb_ms":           {meanMS(sp["ldp.perturb"]), "ms"},
		"product.build_ms":         {meanMS(sp["product.build"]), "ms"},
		"valuation.shapley_ms":     {meanMS(sp["valuation.shapley"]), "ms"},
		"valuation.shapley_p50_ms": {quantile(sp["valuation.shapley"], 0.5), "ms"},

		"pool.checkpoint_ms":    {p.checkpointMS, "ms"},
		"pool.checkpoint_kb":    {p.checkpointKB, "KiB"},
		"pool.trades_rejected":  {rejected, "count"},
		"disk.bytes_per_trade":  {t.diskBytes / trades, "bytes"},
		"wal.bytes_per_trade":   {t.counters["wal/bytes"] / trades, "bytes"},
		"wal.records_per_trade": {t.counters["wal/records"] / trades, "count"},
		"wal.fsyncs_per_trade":  {t.counters["wal/fsyncs"] / trades, "count"},
		"wal.batch_max":         {t.batchMax, "count"},
		"wal.fsync_ms":          {t.fsyncMS, "ms"},

		"runtime.alloc_kb_per_op":   {t.allocBytes / 1024 / ops, "KiB"},
		"runtime.gc_pause_ms_per_s": {t.gcPauseNs / 1e6 / t.scriptDuration.Seconds(), "ms/s"},
		"runtime.heap_mb_end":       {t.heapInuse / (1 << 20), "MB"},
		"loadgen.late_p99_ms":       {quantile(late, 0.99), "ms"},
		"trace.overhead_pct":        {100 * (prim - primU) / primU, "%"},
	}
}
