package main

import (
	"fmt"
	"math/rand"

	"share/internal/dataset"
	"share/internal/httpapi"
	"share/internal/stat"
)

// workload is one fixed traffic mix. Sizes are fixed per workload; only the
// generated inputs (seller λ and rows, every demand, the server seed) vary
// with the seed.
type workload struct {
	name string
	why  string

	markets int // markets per server: 1 uses the default market and its /v1 single-quote route
	sellers int // sellers per market
	rows    int // rows per seller

	product string  // trade product
	budget  float64 // per-seller ε budget (0 = budgeting off)
	nLo     float64 // demanded N is uniform in [nLo, nHi)
	nHi     float64

	// Quote workloads: closed-loop quote clients over the timed window.
	quoteClients int
	// Trade workloads: one closed-loop trader runs episodes of tradesPerMarket
	// trades on every market (round-robin), each episode on a freshly booted
	// server, until the window is used up.
	tradesPerMarket int
	quoteRate       float64 // open-loop quotes/s beside the trader (0 = none)
	restore         bool    // restart check after every episode

	// Traced run only: trades after the quote window (quote workloads), and a
	// quote of each demand before its trade (trade workloads without a quote
	// stream), so every per-layer metric is measured on every workload.
	probeTrades int
	probeQuotes bool

	// extraSetups are set-ups timed and torn down before the measured one, so
	// setup_s is a median.
	extraSetups int
}

var workloads = []workload{
	{
		name:    "quote_analytic",
		why:     "m=50 sellers x 200 rows, analytic backend, 2 closed-loop clients of single HTTP quotes: the solve is ~1% of a quote, so this measures httpapi, loopback transport and the pool's Clone",
		markets: 1, sellers: 50, rows: 200, nLo: 100, nHi: 1000,
		quoteClients: 2, probeTrades: 32, extraSetups: 16,
	},
	{
		name:    "trade_aging",
		why:     "one market, m=50 x 200 rows, 1,500 OLS trades at N~100 by one closed-loop trader with group WAL and an epsilon budget, beside 200 quotes/s open loop: per-trade cost as the ledger ages",
		markets: 1, sellers: 50, rows: 200, product: "ols", budget: 1e12, nLo: 80, nHi: 120,
		tradesPerMarket: 1500, quoteRate: 200, restore: true, extraSetups: 16,
	},
	{
		name:    "trade_fresh",
		why:     "4 young markets, m=8 x 1,500 rows each, 32 logistic trades per market at N~6,000, round-robin by one closed-loop trader: Shapley, LDP and product build dominate",
		markets: 4, sellers: 8, rows: 1500, product: "logistic", nLo: 5000, nHi: 7000,
		tradesPerMarket: 32, probeQuotes: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	serverSeed  int64
	marketSeeds []int64
	sellers     [][]httpapi.SellerRegistration // per market
	demands     []httpapi.Demand
}

// demandCount is the length of the demand cycle; quote windows wrap around
// it, trade episodes use a prefix.
const demandCount = 4096

func makeInputs(w workload, seed int64) inputs {
	rng := stat.NewRand(seed)
	in := inputs{serverSeed: rng.Int63()}
	for j := 0; j < w.markets; j++ {
		in.marketSeeds = append(in.marketSeeds, rng.Int63())
		regs := make([]httpapi.SellerRegistration, w.sellers)
		for i := range regs {
			// Stratified λ: one uniform draw inside each of m equal slices of
			// (0,1), so every seed prices a comparable roster and the
			// seed-to-seed spread of solve effort stays small.
			lambda := (float64(i) + stat.UniformOpen(rng, 0, 1)) / float64(w.sellers)
			d := dataset.SyntheticCCPP(w.rows, rand.New(rand.NewSource(rng.Int63())))
			regs[i] = httpapi.SellerRegistration{
				ID: fmt.Sprintf("s%02d", i), Lambda: lambda, Rows: d.X, Targets: d.Y,
			}
		}
		in.sellers = append(in.sellers, regs)
	}
	n := demandCount
	if need := w.tradesPerMarket * w.markets; need > n {
		n = need
	}
	in.demands = make([]httpapi.Demand, n)
	for i := range in.demands {
		in.demands[i] = httpapi.Demand{
			N:       w.nLo + (w.nHi-w.nLo)*rng.Float64(),
			V:       0.6 + 0.35*rng.Float64(),
			Product: w.product,
		}
	}
	return in
}
