// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload for a fixed time, checks the
// program's outputs, and prints one JSON result line; see README.md for the
// workloads, the metrics and which layer each metric attributes.
//
// Run it through run.sh from the repository root, which builds this
// program and the mdrank worker first:
//
//	bash perfbench/run.sh --workload paper-dlb --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program reads: the names and
// units of the metrics it reports, split into the untraced run's
// end-to-end metrics and the traced run's per-layer ones.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	if err == nil && (len(s.EndToEnd) == 0 || len(s.PerLayer) == 0) {
		err = fmt.Errorf("no end_to_end or no per_layer metrics declared")
	}
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// bench is one invocation: its settings, the operation counters, the
// checks that failed, the metrics set so far and the traced spans.
type bench struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string
	mdrank   string
	workload string
	spec     spec

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64

	prober  *prober
	t0      time.Time
	tracing bool // set for the traced pass only
	spans   []span
}

// passTime is how long one measured pass runs: the whole measuring time,
// or half of it for each of the untraced and traced passes of --trace 1.
func (b *bench) passTime() time.Duration {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (b *bench) op(err error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

// check records a failed correctness check; any one makes the run fail.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// setPercentile sets a named percentile, recording a problem when the
// sample is too small for it.
func (b *bench) setPercentile(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	b.check(err == nil, "%s: %v", name, err)
	b.set(name, v)
}

// setBlockPercentile sets a named percentile as blockPercentile over
// blocks of at least minSteps samples.
func (b *bench) setBlockPercentile(name string, groups [][]float64, q float64) {
	v, err := blockPercentile(groups, q, minSteps)
	b.check(err == nil, "%s: %v", name, err)
	b.set(name, v)
}

// startTracing begins the traced pass. Set before its goroutines start.
func (b *bench) startTracing() {
	b.tracing = true
	b.spans = make([]span, 0, 64*1024) // preallocated: recording must not allocate inside the Step loop
}

// record keeps a span for a call that ran from start to end under parent
// (-1 for a root) and returns its ID. Only the traced pass records.
func (b *bench) record(name string, parent int, start, end time.Time, failed bool) int {
	if !b.tracing {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id := len(b.spans)
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Failed: failed,
		Start: start.Sub(b.t0).Nanoseconds(), End: end.Sub(b.t0).Nanoseconds()})
	return id
}

// reserve opens a span whose end is not known yet; finish closes it.
func (b *bench) reserve(name string, parent int, start time.Time) int {
	return b.record(name, parent, start, start, false)
}

func (b *bench) finish(id int, end time.Time) {
	if id < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spans[id].End = end.Sub(b.t0).Nanoseconds()
}

// spanMillis returns the durations of every span named name, in ms. A
// failed call has missed every latency limit, so it counts as +Inf.
func (b *bench) spanMillis(name string) []float64 {
	var out []float64
	for _, s := range b.spans {
		switch {
		case s.Name != name:
		case s.Failed:
			out = append(out, math.Inf(1))
		default:
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

func main() {
	var b bench
	workload := flag.String("workload", "", "paper-dlb | paper-dlb-tcp | bulk-ddm | serve-churn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time; --trace 1 splits it between the untraced and traced passes")
	trace := flag.Int("trace", 0, "1 = also run the traced pass and report per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration naming the metrics to report")
	flag.StringVar(&b.outDir, "out", ".bench_build/perfbench", "directory for span files and scratch state")
	flag.StringVar(&b.mdrank, "mdrank", "", "mdrank worker binary for the tcp transport")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}

	var err error
	if b.spec, err = readSpec(*specPath); err != nil {
		fatal(err)
	}
	b.seed, b.seconds, b.traced, b.workload = *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workload
	b.metrics = map[string]float64{}
	b.t0 = time.Now()
	steal0, total0 := cpuTicks()
	runtime.GOMAXPROCS(runtime.NumCPU())
	b.prober = newProber()
	defer b.prober.stop()
	if err := os.MkdirAll(b.outDir, 0o777); err != nil {
		fatal(err)
	}

	if w, ok := engineWorkloads[*workload]; ok {
		err = b.runEngine(w)
	} else if *workload == "serve-churn" {
		err = b.runChurn()
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fatal(err)
	}
	b.setShared()

	host := hostFingerprint()
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// CPU time the hypervisor gave to other guests during this run.
		host["steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if b.traced {
		if err := b.writeSpans(host); err != nil {
			fatal(err)
		}
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	out, err := b.result()
	if err != nil {
		fatal(err)
	}
	fmt.Println(out)
	if len(b.problems) > 0 {
		for _, p := range b.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
}

// setShared sets the metrics every workload reports the same way.
func (b *bench) setShared() {
	b.set("peak_rss_mb", peakRSSMB())
	b.set("fail_frac", float64(b.failed)/float64(max(b.attempted, 1)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the last output line: the untraced run reports every
// end-to-end metric, the traced run every per-layer one. Every metric the
// workload set must be declared, and every declared one of the run's kind
// must be set.
func (b *bench) result() (string, error) {
	declared := map[string]bool{}
	for _, d := range append(b.spec.EndToEnd, b.spec.PerLayer...) {
		declared[d.Name] = true
	}
	for name := range b.metrics {
		if !declared[name] {
			return "", fmt.Errorf("metric %s is not declared", name)
		}
	}
	defs := b.spec.EndToEnd
	if b.traced {
		defs = b.spec.PerLayer
	}
	ms := map[string]metricValue{}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a percentile over failed requests: missed
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s = %v", d.Name, v)
		}
		ms[d.Name] = metricValue{v, d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(b.problems) == 0, max(b.attempted, 1), b.failed, ms})
	return string(out), err
}

// writeSpans writes the traced run's spans and their self time per name.
func (b *bench) writeSpans(host map[string]any) error {
	self := map[string]float64{}
	for name, d := range selfTimes(b.spans) {
		self[name] = float64(d) / 1e6
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	data, err := json.Marshal(map[string]any{
		"workload": b.workload, "seed": b.seed, "host": host,
		"self_ms": self, "spans": b.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// peakRSSMB is the peak resident set of this process plus that of its
// largest exited child (the tcp workers), in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(self.Maxrss+kids.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// cpuTicks returns the steal and total ticks of the aggregate "cpu" line
// of /proc/stat (zeros where it cannot be read).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostFingerprint describes the machine beside each result. It is for
// reading only: nothing compares absolute numbers across hosts.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu": runtime.NumCPU(), "cpu": cpu, "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}
