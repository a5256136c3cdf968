package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The machine's weather. On a shared host the memory system is shared too,
// and how fast it is changes from minute to minute with what the neighbours
// do: on the 2-core probe VM a register-only loop repeats within 3% all day,
// while a walk over 32 MB — and with it every timing of the program under
// test — swings by up to a factor of two. Unadjusted, ten runs of one
// commit spread by 15 to 40% of their median. So the benchmark times a fixed
// walk of its own (the probe) immediately before and after everything it
// times, and reports timings adjusted to nominal weather:
//
//	adjusted = raw × (weatherNominal ÷ probe time)^weatherShare
//
// The raw values are printed beside them (extra raw.<metric>).

// weatherNominal is the probe's time in fair weather on the probe VM.
const weatherNominal = 15 * time.Millisecond

// weatherShare is how strongly the program's timings follow the probe's:
// the slope of log(timing) against log(probe time) over runs in changing
// weather. It came out between 0.45 and 0.6 on most metrics and workloads
// (median 0.5), and near 0 on the two that stream through memory rather than
// jump about in it, dblp_cold's set-up and restart.
const weatherShare = 0.5

// weatherBytes is the size of what the probe walks: larger than a core's
// private caches, so the walk is served by the cache and memory the machine
// shares with its neighbours.
const weatherBytes = 32 << 20

// weather is the probe and its record over one run.
type weather struct {
	buf     []uint32      // what the probe walks
	sink    uint32        // keeps the walk from being optimised away
	samples sample        // every probe, in seconds
	spent   time.Duration // what the probes themselves took
}

// newWeather maps the probe's buffer outside the Go heap, so that it does not
// move the garbage collector's pacing for the program under test, which
// shares the process; it adds weatherBytes to peak_rss_mb. The mapping lasts
// as long as the process: a run that the hang guard gives up on may still be
// probing.
func newWeather() (*weather, error) {
	mem, err := syscall.Mmap(-1, 0, weatherBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the weather probe's buffer: %w", err)
	}
	return &weather{buf: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), weatherBytes/4)}, nil
}

// probe times a fixed pseudo-random walk over the buffer, about 15 ms.
func (w *weather) probe() {
	n := uint32(len(w.buf))
	idx, sum := uint32(1), uint32(0)
	t0 := time.Now()
	for i := 0; i < 1<<20; i++ {
		idx = idx*1664525 + 1013904223
		j := idx % n
		sum += w.buf[j]
		w.buf[j] = idx
	}
	d := time.Since(t0)
	w.samples.addDur(d)
	w.spent += d
	w.sink = sum
}

// open probes the weather before a timed section and returns the mark that
// close takes.
func (w *weather) open() int {
	if len(w.samples) == 0 {
		// The first walk also faults the buffer in; it is not a sample.
		w.probe()
		w.samples = w.samples[:0]
	}
	w.probe()
	return len(w.samples) - 1
}

// close probes the weather after a timed section and returns the factor that
// adjusts a duration measured since the mark to nominal weather, from the
// median of the probes taken since then (the section's own two and any its
// inner sections took).
func (w *weather) close(mark int) float64 {
	w.probe()
	return weatherFactor(w.samples[mark:].median())
}

// weatherFactor adjusts a duration measured while the probe took probe
// seconds to nominal weather.
func weatherFactor(probe float64) float64 {
	return math.Pow(weatherNominal.Seconds()/probe, weatherShare)
}

// timings are the observations of one timed quantity, as measured and
// adjusted to nominal weather.
type timings struct{ raw, adj sample }

func (t *timings) addAll(s sample, factor float64) {
	for _, v := range s {
		t.raw = append(t.raw, v)
		t.adj = append(t.adj, v*factor)
	}
}

func (t *timings) addDur(d time.Duration, factor float64) { t.addAll(sample{d.Seconds()}, factor) }

func sum(s sample) float64 {
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total
}
