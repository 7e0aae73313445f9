package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"share/internal/httpapi"
	"share/internal/pool"
)

// env is one booted server: httpapi.Server on a loopback listener with its
// markets created and sellers registered, plus the client that drives it.
type env struct {
	w        workload
	in       inputs
	dir      string
	srv      *httpapi.Server
	hs       *http.Server
	served   chan struct{}
	stopOnce sync.Once
	tr       *http.Transport
	client   *httpapi.Client
	ids      []string // market IDs, in input order
	handler  *tracingHandler
	setupDur time.Duration
}

// discardLogf formats every log line like share-server's log.Printf does,
// but drops it: the formatting cost stays in the request path without
// flooding the benchmark's output.
func discardLogf(format string, args ...any) { fmt.Fprintf(io.Discard, format, args...) }

func (e *env) options(dir string) httpapi.Options {
	return httpapi.Options{
		Seed:          e.in.serverSeed,
		Logf:          discardLogf,
		SnapshotDir:   dir,
		EpsilonBudget: e.w.budget,
	}
}

// boot starts a server the way `share-server -snapshot-dir DIR` does (group
// WAL, default workers and admission; plus `-epsilon-budget` when the
// workload is budgeted), then creates the workload's markets and registers
// their sellers over HTTP. The whole of it is the set-up time. With traced
// set, requests pass through a span-recording wrapper of the handler.
func boot(ctx context.Context, w workload, in inputs, root string, traced bool) (*env, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, in: in, dir: dir, served: make(chan struct{})}
	e.srv = httpapi.NewServer(e.options(dir))
	if _, err := e.srv.Pool().RestoreAll(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("restoring empty data dir: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Pool().Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = e.srv.Handler()
	if traced {
		e.handler = newTracingHandler(h)
		h = e.handler
	}
	e.hs = &http.Server{Handler: h, ReadTimeout: 30 * time.Second, WriteTimeout: 5 * time.Minute}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	// At most two connections: the load never runs more than two goroutines.
	e.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	e.client = httpapi.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: e.tr, Timeout: time.Minute})
	if err := e.setup(ctx); err != nil {
		e.close()
		return nil, err
	}
	e.setupDur = time.Since(start)
	return e, nil
}

func (e *env) setup(ctx context.Context) error {
	for j := 0; j < e.w.markets; j++ {
		id := e.srv.DefaultMarket()
		if e.w.markets > 1 {
			id = "m" + strconv.Itoa(j)
			seed := e.in.marketSeeds[j]
			if _, err := e.client.CreateMarket(ctx, httpapi.MarketSpec{ID: id, Seed: &seed}); err != nil {
				return fmt.Errorf("creating market %s: %w", id, err)
			}
		}
		for _, reg := range e.in.sellers[j] {
			if _, err := e.client.RegisterSellerIn(ctx, id, reg); err != nil {
				return fmt.Errorf("registering %s in %s: %w", reg.ID, id, err)
			}
		}
		e.ids = append(e.ids, id)
	}
	return nil
}

func (e *env) market(j int) *pool.Market {
	m, err := e.srv.Pool().Get(e.ids[j])
	if err != nil {
		panic(err) // the benchmark created every market it addresses
	}
	return m
}

// stopHTTP shuts the HTTP server down; once it returns every handler has
// finished. Safe to call more than once.
func (e *env) stopHTTP() {
	e.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.hs.Shutdown(ctx)
		<-e.served
		e.tr.CloseIdleConnections()
	})
}

// close stops the HTTP server, closes the pool (flushing its WAL) and
// removes the data directory.
func (e *env) close() {
	e.stopHTTP()
	e.srv.Pool().Close()
	os.RemoveAll(e.dir)
}

// restoreCheck copies the data directory as it stands after the last
// acknowledged trade (a crash image), restores the copy into a fresh server
// with RestoreAll, and requires every market's trade count, weights and
// per-seller ε spent to equal the live market's.
func (e *env) restoreCheck() error {
	cp := e.dir + "-restore"
	defer os.RemoveAll(cp)
	if err := copyDir(e.dir, cp); err != nil {
		return fmt.Errorf("restore check: copying data dir: %w", err)
	}
	fresh := httpapi.NewServer(e.options(cp))
	defer fresh.Pool().Close()
	ids, err := fresh.Pool().RestoreAll()
	if err != nil {
		return fmt.Errorf("restore check: %w", err)
	}
	restored := make(map[string]bool, len(ids))
	for _, id := range ids {
		restored[id] = true
	}
	for j, id := range e.ids {
		if !restored[id] {
			return fmt.Errorf("restore check: market %s was not restored", id)
		}
		got, err := fresh.Pool().Get(id)
		if err != nil {
			return fmt.Errorf("restore check: %w", err)
		}
		live, back := e.market(j).View(), got.View()
		if len(live.Trades) != len(back.Trades) {
			return fmt.Errorf("restore check: market %s: %d trades live, %d restored", id, len(live.Trades), len(back.Trades))
		}
		if !equalFloats(live.Weights, back.Weights) {
			return fmt.Errorf("restore check: market %s: weights differ after restore", id)
		}
		if len(live.Sellers) != len(back.Sellers) {
			return fmt.Errorf("restore check: market %s: %d sellers live, %d restored", id, len(live.Sellers), len(back.Sellers))
		}
		for i := range live.Sellers {
			if live.Sellers[i].Spent != back.Sellers[i].Spent {
				return fmt.Errorf("restore check: market %s seller %s: ε spent %v live, %v restored",
					id, live.Sellers[i].ID, live.Sellers[i].Spent, back.Sellers[i].Spent)
			}
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range entries {
		if !en.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var errCheck = errors.New("correctness check failed")
