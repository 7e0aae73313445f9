package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"share/internal/core"
	"share/internal/httpapi"
	"share/internal/pool"
	"share/internal/product"
)

// quoteOut and tradeOut are the parts of a response the checks and the
// digest read, whichever path (HTTP or in-process) produced them.
type quoteOut struct {
	pm, pd   float64
	tau, chi []float64
}

type tradeOut struct {
	round   int
	pieces  []int
	quote   quoteOut
	weights []float64
	total   time.Duration // the round's Algorithm 1 time (Timings.Total)
}

// driver issues operations against the markets of one env.
type driver interface {
	quote(ctx context.Context, j int, d httpapi.Demand) (quoteOut, error)
	trade(ctx context.Context, j int, d httpapi.Demand) (tradeOut, error)
	weights(ctx context.Context, j int) ([]float64, error)
}

// httpDriver drives the server through httpapi.Client. The default market
// is quoted through the /v1 single-quote route; other markets through a
// /v2 batch of one.
type httpDriver struct{ e *env }

func fromQuote(q httpapi.Quote) quoteOut {
	return quoteOut{pm: q.ProductPrice, pd: q.DataPrice, tau: q.Fidelities, chi: q.Allocations}
}

func (h httpDriver) quote(ctx context.Context, j int, d httpapi.Demand) (quoteOut, error) {
	var q httpapi.Quote
	var err error
	if h.e.w.markets == 1 {
		q, err = h.e.client.Quote(ctx, d)
	} else {
		q, err = h.e.client.QuoteIn(ctx, h.e.ids[j], d)
	}
	return fromQuote(q), err
}

func (h httpDriver) trade(ctx context.Context, j int, d httpapi.Demand) (tradeOut, error) {
	t, err := h.e.client.TradeIn(ctx, h.e.ids[j], d)
	return tradeOut{round: t.Round, pieces: t.Pieces, quote: fromQuote(t.Quote), weights: t.Weights,
		total: time.Duration(t.TotalSeconds * float64(time.Second))}, err
}

func (h httpDriver) weights(ctx context.Context, j int) ([]float64, error) {
	return h.e.client.WeightsIn(ctx, h.e.ids[j])
}

// procDriver calls the same pool.Market methods the handlers call, on the
// env's markets, with spans around each call, and keeps each trade's
// Algorithm 1 phase timings. It also times the solve a quote performs
// (Clone+SetBuyer+Solve on the view's prototype): right after each pool
// call when inlineSolve is set (sparse quotes beside trades), or instead of
// the pool call when solveOnly is set (a second pass over a closed-loop
// window, so both spans are taken at the same concurrency).
type procDriver struct {
	e           *env
	inlineSolve bool
	solveOnly   bool
	mu          sync.Mutex
	spans       map[string][]time.Duration
}

func newProcDriver(e *env) *procDriver {
	return &procDriver{e: e, spans: make(map[string][]time.Duration)}
}

func (p *procDriver) record(kv ...any) {
	p.mu.Lock()
	for i := 0; i < len(kv); i += 2 {
		name := kv[i].(string)
		p.spans[name] = append(p.spans[name], kv[i+1].(time.Duration))
	}
	p.mu.Unlock()
}

func buyerOf(d httpapi.Demand) core.Buyer {
	b := core.PaperBuyer()
	b.N, b.V = d.N, d.V
	return b
}

func fromProfile(p *core.Profile) quoteOut {
	return quoteOut{pm: p.PM, pd: p.PD, tau: p.Tau, chi: p.Chi}
}

func (p *procDriver) quote(ctx context.Context, j int, d httpapi.Demand) (quoteOut, error) {
	if p.solveOnly {
		return p.solve(ctx, j, d)
	}
	m := p.e.market(j)
	b := buyerOf(d)
	var prof *core.Profile
	var err error
	t0 := time.Now()
	if p.e.w.markets == 1 {
		prof, _, err = m.Quote(ctx, b, "")
	} else {
		var profs []*core.Profile
		profs, _, err = m.QuoteBatch(ctx, []pool.BatchDemand{{Buyer: b}})
		if err == nil {
			prof = profs[0]
		}
	}
	p.record("pool.quote", time.Since(t0))
	if err != nil {
		return quoteOut{}, err
	}
	if p.inlineSolve {
		if _, err := p.solve(ctx, j, d); err != nil {
			return quoteOut{}, err
		}
	}
	return fromProfile(prof), nil
}

// solve times what a quote's solve costs: Clone+SetBuyer+Solve on the
// current view's prototype for the market's backend.
func (p *procDriver) solve(ctx context.Context, j int, d httpapi.Demand) (quoteOut, error) {
	m := p.e.market(j)
	proto, ok := m.View().Protos[m.Solver()]
	if !ok {
		return quoteOut{}, fmt.Errorf("view has no %q prototype", m.Solver())
	}
	t0 := time.Now()
	prep := proto.Clone()
	prep.SetBuyer(buyerOf(d))
	prof, err := prep.Solve(ctx)
	p.record("solve.solve", time.Since(t0))
	if err != nil {
		return quoteOut{}, err
	}
	return fromProfile(prof), nil
}

// builderFor mirrors the server's product resolution for the products the
// workloads trade.
func builderFor(name string, m *pool.Market) (product.Builder, error) {
	switch name {
	case "", "ols":
		return product.OLS{}, nil
	case "logistic":
		return product.Logistic{Threshold: product.MedianThreshold(m.TestSet())}, nil
	}
	return nil, fmt.Errorf("product %q has no in-process builder", name)
}

func (p *procDriver) trade(ctx context.Context, j int, d httpapi.Demand) (tradeOut, error) {
	m := p.e.market(j)
	builder, err := builderFor(d.Product, m)
	if err != nil {
		return tradeOut{}, err
	}
	t0 := time.Now()
	tx, err := m.Trade(ctx, buyerOf(d), builder, nil)
	call := time.Since(t0)
	if err != nil {
		return tradeOut{}, err
	}
	tm := tx.Timings
	p.record("pool.trade", call, "market.round", tm.Total, "market.solve", tm.Strategy,
		"ldp.perturb", tm.DataTransaction, "product.build", tm.Production, "valuation.shapley", tm.WeightUpdate)
	return tradeOut{round: tx.Round, pieces: tx.Pieces, weights: tx.Weights, total: tm.Total,
		quote: fromProfile(tx.Profile)}, nil
}

func (p *procDriver) weights(_ context.Context, j int) ([]float64, error) {
	return p.e.market(j).View().Weights, nil
}

// tracingHandler wraps Server.Handler() with a span around every quote and
// trade request.
type tracingHandler struct {
	h     http.Handler
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newTracingHandler(h http.Handler) *tracingHandler {
	return &tracingHandler{h: h, spans: make(map[string][]time.Duration)}
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracingHandler) reset() {
	t.mu.Lock()
	t.spans = make(map[string][]time.Duration)
	t.mu.Unlock()
}

func (t *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	var kind string
	switch {
	case r.Method != http.MethodPost:
		return
	case strings.HasSuffix(r.URL.Path, "/quote"), strings.HasSuffix(r.URL.Path, "/quotes"):
		kind = "handler.quote"
	case strings.HasSuffix(r.URL.Path, "/trades"):
		kind = "handler.trade"
	default:
		return
	}
	t.mu.Lock()
	t.spans[kind] = append(t.spans[kind], d)
	t.mu.Unlock()
}

// opStats accounts one kind of operation: attempts, failures, and for the
// successful ones the latency (from the due time in an open loop, from the
// send in a closed one), how late the generator sent the request (after its
// due time, or after the previous reply), and the service time from send
// to reply.
type opStats struct {
	attempted, failed int
	lat, late, svc    []time.Duration
	firstErr          error
}

func (s *opStats) merge(o *opStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.svc = append(s.svc, o.svc...)
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// tally counts one operation and reports whether it succeeded. A
// correctness failure is returned (it ends the run); a failed request — a
// 429, a 5xx, any other error status or a transport error — is counted and
// the load goes on.
func (s *opStats) tally(err error) (bool, error) {
	s.attempted++
	if err == nil {
		return true, nil
	}
	if errors.Is(err, errCheck) {
		return false, err
	}
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
	return false, nil
}

// observe tallies one operation sent at sent and answered at done, and
// keeps its timings when it succeeded; due is when the generator meant to
// send it.
func (s *opStats) observe(due, sent, done time.Time, open bool, err error) error {
	if ok, err := s.tally(err); !ok {
		return err
	}
	lat := done.Sub(sent)
	if open {
		lat = done.Sub(due)
	}
	s.lat = append(s.lat, lat)
	s.late = append(s.late, sent.Sub(due))
	s.svc = append(s.svc, done.Sub(sent))
	return nil
}

// checkQuote verifies a quote against the model: p^D = v·p^M/2 (Eq. 25),
// fidelities in [0,1] and allocations summing to N.
func checkQuote(d httpapi.Demand, q quoteOut) error {
	if want := d.V * q.pm / 2; math.Abs(q.pd-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("%w: p^D=%v but v·p^M/2=%v", errCheck, q.pd, want)
	}
	for i, t := range q.tau {
		if !(t >= 0 && t <= 1) {
			return fmt.Errorf("%w: fidelity[%d]=%v outside [0,1]", errCheck, i, t)
		}
	}
	sum := 0.0
	for _, c := range q.chi {
		sum += c
	}
	if math.Abs(sum-d.N) > 1e-6*d.N {
		return fmt.Errorf("%w: allocations sum to %v, want N=%v", errCheck, sum, d.N)
	}
	return nil
}

// checkTrade verifies a trade: its quote, pieces summing to round(N), and
// the round number following the market's previous one.
func checkTrade(d httpapi.Demand, t tradeOut, wantRound int) error {
	if t.round != wantRound {
		return fmt.Errorf("%w: round %d, want %d", errCheck, t.round, wantRound)
	}
	n := 0
	for _, p := range t.pieces {
		n += p
	}
	if n != int(math.Round(d.N)) {
		return fmt.Errorf("%w: round %d pieces sum to %d, want round(%v)", errCheck, t.round, n, d.N)
	}
	return checkQuote(d, t.quote)
}

// digestQuotes is how many leading quotes of a quote window enter the
// digest; quotes are solved against a fixed view, so their answers do not
// depend on timing.
const digestQuotes = 256

// quoteWindow runs closed-loop quote clients on market 0 until count quotes
// have been sent or, with count 0, until the deadline has passed and at
// least digestQuotes have been sent. Demand i of the cycle goes to whichever
// client takes index i; the first digestQuotes answers are kept by index.
// With a slicer, latencies go to it alone, so memory stays flat however many
// quotes the window completes; otherwise every timing is kept.
func quoteWindow(ctx context.Context, drv driver, in inputs, clients int, deadline time.Time, count int, slc *slicer) (*opStats, []quoteOut, error) {
	var next atomic.Int64
	kept := make([]quoteOut, digestQuotes)
	per := make([]*opStats, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		st := &opStats{}
		per[c] = st
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if (count > 0 && i >= count) || (count == 0 && i >= digestQuotes && !time.Now().Before(deadline)) || ctx.Err() != nil {
					return
				}
				d := in.demands[i%len(in.demands)]
				sent := time.Now()
				q, err := drv.quote(ctx, 0, d)
				done := time.Now()
				if err == nil {
					err = checkQuote(d, q)
				}
				if err == nil && i < digestQuotes {
					kept[i] = q
				}
				if slc != nil {
					var ok bool
					if ok, errs[c] = st.tally(err); ok {
						slc.add(done.Sub(sent), done)
					}
				} else {
					errs[c] = st.observe(due, sent, done, false, err)
				}
				if errs[c] != nil {
					return
				}
				due = done
			}
		}(c)
	}
	wg.Wait()
	total := &opStats{}
	for _, st := range per {
		total.merge(st)
	}
	if err := errors.Join(errs...); err != nil {
		return total, nil, err
	}
	return total, kept, ctx.Err()
}

// episode is one trade script: tradesPerMarket rounds over every market,
// round-robin, by one closed-loop trader, with an optional quote of each
// demand before its trade and an optional open-loop quote stream beside it.
type episode struct {
	trades, quotes *opStats
	outs           []tradeOut // in execution order
	wall           time.Duration
}

func runEpisode(ctx context.Context, drv driver, w workload, in inputs, probeQuotes bool) (*episode, error) {
	ep := &episode{trades: &opStats{}, quotes: &opStats{}}
	open := &opStats{}
	stop := make(chan struct{})
	var openErr error
	var wg sync.WaitGroup
	if w.quoteRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			openErr = openLoopQuotes(ctx, drv, in, w.quoteRate, stop, open)
		}()
	}
	start := time.Now()
	err := func() error {
		due := time.Now()
		rounds := make([]int, w.markets) // last acknowledged round per market
		for r := 0; r < w.tradesPerMarket; r++ {
			for j := 0; j < w.markets; j++ {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				d := in.demands[r*w.markets+j]
				if probeQuotes {
					sent := time.Now()
					q, err := drv.quote(ctx, j, d)
					done := time.Now()
					if err == nil {
						err = checkQuote(d, q)
					}
					if err := ep.quotes.observe(sent, sent, done, false, err); err != nil {
						return err
					}
					due = done // the trade is due once its quote is in
				}
				sent := time.Now()
				t, err := drv.trade(ctx, j, d)
				done := time.Now()
				if err == nil {
					err = checkTrade(d, t, rounds[j]+1)
				}
				if err := ep.trades.observe(due, sent, done, false, err); err != nil {
					return err
				}
				if err == nil {
					rounds[j] = t.round
					ep.outs = append(ep.outs, t)
				}
				due = time.Now()
			}
		}
		return nil
	}()
	ep.wall = time.Since(start)
	close(stop)
	wg.Wait()
	ep.quotes.merge(open)
	return ep, errors.Join(err, openErr)
}

// openLoopQuotes sends quotes on market 0 at a fixed rate until stop is
// closed, timing each from when it was due, so a stalled reply shows up in
// the latency of the quotes queued behind it.
func openLoopQuotes(ctx context.Context, drv driver, in inputs, rate float64, stop <-chan struct{}, st *opStats) error {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		d := in.demands[k%len(in.demands)]
		sent := time.Now()
		q, err := drv.quote(ctx, 0, d)
		done := time.Now()
		if err == nil {
			err = checkQuote(d, q)
		}
		if err := st.observe(due, sent, done, true, err); err != nil {
			return err
		}
	}
}
