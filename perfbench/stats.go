package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds (nearest rank), in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(0, min(i, len(s)-1))])
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// procField reads one numeric field from a /proc/self file of "key: value"
// lines (value may carry a unit suffix such as kB).
func procField(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == key {
			return strconv.ParseFloat(strings.Fields(v)[0], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// writeBytes is the bytes this process has caused to be sent to storage
// (WAL appends and checkpoints; socket writes are not counted).
func writeBytes() (float64, error) { return procField("/proc/self/io", "write_bytes") }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM")
	return kb / 1024, err
}

// digest hashes the outputs that must not change for a given seed: every
// trade's round and prices, the digested quotes' prices, and the final
// weights of every market.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string {
	return fmt.Sprintf("%016x", d.h.Sum64())
}

// sliceOps is how many operations one slice of a quote window holds.
const sliceOps = 250

// slicer cuts a closed-loop window's completions, in the order they
// arrive, into consecutive slices of sliceOps and keeps only each slice's
// p50 and throughput.
type slicer struct {
	mu        sync.Mutex
	prev      time.Time // end of the previous slice
	buf       []time.Duration
	p50, rate []float64
}

func newSlicer(start time.Time) *slicer {
	return &slicer{prev: start, buf: make([]time.Duration, 0, sliceOps)}
}

func (s *slicer) add(lat time.Duration, done time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, lat)
	if len(s.buf) == sliceOps {
		s.flush(done)
	}
}

func (s *slicer) flush(end time.Time) {
	s.p50 = append(s.p50, quantile(s.buf, 0.50))
	s.rate = append(s.rate, float64(len(s.buf))/end.Sub(s.prev).Seconds())
	s.prev, s.buf = end, s.buf[:0]
}

// finish returns every slice's statistics. A partial last slice is dropped
// unless it is the only one.
func (s *slicer) finish(end time.Time) (p50, rate []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.p50) == 0 && len(s.buf) > 0 {
		s.flush(end)
	}
	return s.p50, s.rate
}

// rssSampler records the peak resident set size of each period-long
// interval, resetting the kernel's high-water mark (VmHWM) at the start of
// every interval through /proc/self/clear_refs.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
	err        error
}

func resetHWM() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func startRSS(period time.Duration) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	if r.err = resetHWM(); r.err != nil {
		close(r.done)
		return r
	}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				r.sample()
				return
			case <-tick.C:
				if r.sample(); r.err != nil {
					return
				}
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	mb, err := peakRSSMB()
	if err == nil {
		err = resetHWM()
	}
	r.peaks = append(r.peaks, mb)
	r.err = err
}

// finish stops the sampler and returns every interval's peak.
func (r *rssSampler) finish() ([]float64, error) {
	select {
	case <-r.done:
	default:
		close(r.stop)
		<-r.done
	}
	return r.peaks, r.err
}
