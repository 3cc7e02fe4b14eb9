// Command perfbench is the end-to-end benchmark of the DarkDNS
// reproduction. It runs one workload per process through the program's
// public entry points, checks every output against ground truth or a
// required property, and prints one JSON result line:
//
//	perfbench --workload full-watch --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it prints the per-layer metrics of a traced run instead
// of the end-to-end ones. With --steady N it runs every workload N times
// in alternating order, each in its own process, and prints the spread of
// every metric (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts checked operations and the ones whose checks failed. The
// first few violations go to standard error so a failing run explains
// itself.
type tally struct {
	attempted, failed int64
	shown             int
}

// add counts n operations of which failed did not pass, described by bad.
func (t *tally) add(what string, n, failed int64, bad []string) {
	t.attempted += n
	t.failed += failed
	for _, v := range bad {
		if t.shown < 20 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, v)
			t.shown++
		}
	}
}

// op counts one operation, failed when bad is not empty.
func (t *tally) op(what string, bad []string) {
	var failed int64
	if len(bad) > 0 {
		failed = 1
	}
	t.add(what, 1, failed, bad)
}

// runOpts are the per-run arguments every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workload runs one benchmark workload and returns its result.
type workload struct {
	name string
	run  func(runOpts) (*result, error)
}

var workloads = []workload{
	{"full-watch", func(o runOpts) (*result, error) { return runCampaignWorkload(fullWatch, o) }},
	{"zone-churn", func(o runOpts) (*result, error) { return runCampaignWorkload(zoneChurn, o) }},
	{"live-feed", runLiveFeed},
}

func main() {
	name := flag.String("workload", "", "workload to run: full-watch, zone-churn or live-feed")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 36, "length of the measured region in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	steady := flag.Int("steady", 0, "run every workload this many times in alternating order and print each metric's spread")
	seeds := flag.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated seeds the -steady runs cycle through")
	flag.Parse()

	if *steady > 0 {
		if err := runSteady(*steady, *seeds, *seconds, *traceFlag); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := w.run(runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is left unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of a sorted slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// more reports whether another round fits in the measured region that
// began at start: always before the first round, afterwards only if a
// round as long as the median so far would end within the region.
func more(start time.Time, region time.Duration, rounds []float64) bool {
	if len(rounds) == 0 {
		return true
	}
	return time.Since(start).Seconds()+median(rounds) <= region.Seconds()
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// opCost is what one measured operation cost the process.
type opCost struct {
	wallStart  time.Time
	cpuStart   time.Duration
	before     runtime.MemStats
	wall, cpu  time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// startOp collects garbage left by earlier operations, so each one starts
// from the same heap, then starts the operation's clocks.
func startOp() *opCost {
	runtime.GC()
	c := &opCost{}
	runtime.ReadMemStats(&c.before)
	c.cpuStart = processCPU()
	c.wallStart = time.Now()
	return c
}

// end stops the operation's clocks.
func (c *opCost) end() {
	c.wall = time.Since(c.wallStart)
	c.cpu = processCPU() - c.cpuStart
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	c.allocBytes = after.TotalAlloc - c.before.TotalAlloc
	c.allocs = after.Mallocs - c.before.Mallocs
	c.gcCycles = after.NumGC - c.before.NumGC
	c.gcPause = time.Duration(after.PauseTotalNs - c.before.PauseTotalNs)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// setCommon sets the end-to-end metrics every workload reports from the
// costs of its measured operations.
func setCommon(res *result, ops []*opCost, setups []float64) {
	res.set("setup_s", median(setups), "s")
	res.set("campaign_s", medianOf(ops, func(c *opCost) float64 { return seconds(c.wall) }), "s")
	res.set("cpu_s", medianOf(ops, func(c *opCost) float64 { return seconds(c.cpu) }), "s")
	res.set("alloc_mb", medianOf(ops, func(c *opCost) float64 { return float64(c.allocBytes) / (1 << 20) }), "MB")
	res.set("allocs", medianOf(ops, func(c *opCost) float64 { return float64(c.allocs) }), "count")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
