// Command simbench is the simulator's end-to-end and per-layer
// benchmark. Each workload is one seeded, pre-generated job stream
// simulated to completion in this process. Run it through run.sh from
// the repository root:
//
//	bash simbench/run.sh --workload paper-dmr --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it repeats the workload's streams until --seconds are
// used and reports the end-to-end metrics: wall time as a multiple of a
// reference loop, median set-up time, peak RSS and the modeled outcomes. With --trace 1 it runs the stream once
// with counters and the telemetry sink attached, times the layer probes
// and reports the per-layer metrics and a layer budget. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// benchProcs is the GOMAXPROCS every timed simulation runs at. The
// simulation is single-threaded: on one P a process handoff stays on one
// OS thread, so the figures neither pay for nor vary with cross-CPU
// wakeups. The traced run measures the same stream at altProcs too.
const (
	benchProcs = 1
	altProcs   = 2
)

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

// tally accumulates attempts, failures and the problems behind them.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(o outcome) {
	t.attempted += o.jobs
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

// fail records a check that failed outside any one run, counting the
// run's jobs as failed.
func (t *tally) fail(o outcome, problem string) {
	t.failed += o.jobs - o.failed
	t.problems = append(t.problems, problem)
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-dmr, trace-replay or all-features")
	seed := flag.Int64("seed", 1, "seed of the generated job stream")
	seconds := flag.Int("seconds", 60, "seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	b, ok := lookupBench(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs)
	fmt.Printf("simbench %s seed=%d seconds=%d trace=%d | %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		b.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	fmt.Printf("why: %s\n", b.why)

	budget := time.Duration(*seconds) * time.Second
	var t tally
	var m map[string]metric
	if *trace == 1 {
		m = traced(b, *seed, budget, &t)
	} else {
		m = timed(b, *seed, budget, &t)
	}
	for _, p := range t.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	out, err := json.Marshal(result{Correct: t.failed == 0 && len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// commit names the source revision, as passed in by run.sh.
func commit() string {
	if c := os.Getenv("SIMBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// streamSeed is the seed of stream i of a run seeded with seed. A run
// simulates several independent streams, so its figures average over
// their differences instead of following one stream's luck.
func streamSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// timed simulates each of the workload's streams once, then cycles
// through them again while the budget lasts, and reports the end-to-end
// metrics. Each simulation's wall time is divided by the reference loop
// timed around it. wall_ref is the median over streams of each stream's
// lowest ratio: other tenants' load only ever adds time, so a stream's
// fastest repeat is the steadiest estimate of its cost. setup_s is the
// median over all simulations; the modeled outcomes are means over the
// streams. Every repeat of a stream must reproduce its first outcome
// digest.
func timed(b bench, seed int64, budget time.Duration, t *tally) map[string]metric {
	start := time.Now()
	walls := make([][]float64, b.streams)
	rels := make([][]float64, b.streams)
	var setups []float64
	first := make([]outcome, b.streams)
	for i := 0; ; i++ {
		s := i % b.streams
		runtime.GC() // each run starts from a collected heap
		ref0 := refHandoff()
		o := simulate(b, streamSeed(seed, s), nil, nil)
		ref := (ref0 + refHandoff()) / 2
		t.add(o)
		if i < b.streams {
			first[s] = o
		} else if o.digest != first[s].digest {
			t.fail(o, fmt.Sprintf("stream %d repeat: outcome digest %016x differs from %016x", s, o.digest, first[s].digest))
		}
		walls[s] = append(walls[s], o.wallS())
		rels[s] = append(rels[s], o.wallS()/ref)
		setups = append(setups, o.setupS())
		fmt.Printf("stream %d (seed %d): setup %.4f s (generate %.4f, build %.4f, submit %.4f) wall %.3f s, reference %.4f s, %d events, digest %016x\n",
			s, streamSeed(seed, s), o.setupS(), o.generateS, o.buildS, o.submitS, o.wallS(), ref, o.events, o.digest)
		elapsed := time.Since(start)
		if i+1 >= b.streams && elapsed+elapsed/time.Duration(i+1) > budget {
			break
		}
	}
	perStream := make([]float64, b.streams)
	for s := range rels {
		perStream[s] = slices.Min(rels[s])
		fmt.Printf("stream %d: %d runs, wall %.3f-%.3f s, wall/reference %.2f-%.2f\n",
			s, len(rels[s]), slices.Min(walls[s]), slices.Max(walls[s]), perStream[s], slices.Max(rels[s]))
	}
	fastest := make([]float64, b.streams)
	for s, w := range walls {
		fastest[s] = slices.Min(w)
	}
	fmt.Printf("wall: median over streams of the fastest repeat %.3f s\n", median(fastest))
	rss, err := peakRSSMB()
	if err != nil {
		t.problems = append(t.problems, err.Error())
	}
	m := map[string]metric{
		"wall_ref":    {median(perStream), "ref"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MB"},
	}
	var makespan, wait, p95, energy []float64
	for _, o := range first {
		if o.failed > 0 {
			continue
		}
		makespan = append(makespan, o.makespanS)
		wait = append(wait, o.avgWaitS)
		p95 = append(p95, o.p95WaitS)
		energy = append(energy, o.energyMJ)
	}
	if len(makespan) > 0 {
		m["makespan_s"] = metric{mean(makespan), "s"}
		m["avg_wait_s"] = metric{mean(wait), "s"}
		m["wait_p95_s"] = metric{mean(p95), "s"}
		m["energy_mj"] = metric{mean(energy), "MJ"}
	}
	return m
}

// peakRSSMB is the process's peak resident set in MiB: VmHWM, the
// high-water mark of this program image. getrusage's maxrss is not
// used: it carries over the peak of the image that exec replaced, so a
// launcher's footprint would show through.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
