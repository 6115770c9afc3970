// Command bench is the repository's benchmark: five closed-loop workloads on
// the stack cmd/rhodosd serves and cmd/rhodos drives, each in a process of
// its own, reporting quiet-slice end-to-end figures and per-layer timings
// taken from outside the program. See README.md beside this file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	name := flag.String("workload", "", "workload to run in this process (default: all five, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated op streams")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 2, "0: end-to-end metrics, 1: layer metrics from a traced pass, 2: both")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: one set-up, a tenth of the warm-up, short traced pass")
	flag.BoolVar(&o.slices, "slices", false, "also print the window slice by slice, to standard error")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the span traces are written to")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	aa := flag.Bool("aa", false, "run the set twice and compare every end-to-end metric against its bound")
	flag.Parse()
	if flag.NArg() != 0 || o.trace < 0 || o.trace > 2 || o.seconds <= 0 {
		flag.Usage()
		return 2
	}
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *name == "" {
		return runSet(o, *aa)
	}
	spec := findWorkload(*name)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(spec, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(os.Stdout, res, o)
	if !res.correct() {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the one JSON
// object the driver reads as the last line.
func printResult(w io.Writer, res *result, o options) {
	fmt.Fprintf(w, "workload %s: seed %d, window %.1f s, closed loop, %d clients, %d ops attempted, %d failed\n",
		res.workload, o.seed, o.seconds, numClients, res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	section := func(title string, defs []metricDef, vals map[string]float64) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range defs {
			fmt.Fprintf(w, "    %-34s %16.4f %s\n", d.name, vals[d.name], d.unit)
			out.Metrics[d.name] = value{vals[d.name], d.unit}
		}
	}
	section("end-to-end", endToEnd, res.e2e)
	section("per-layer", perLayer, res.layers)
	line, err := json.Marshal(out)
	if err != nil { // a NaN or Inf value; report the run as failed rather than print nothing
		line = []byte(fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, res.attempted, res.attempted))
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runChild runs one workload in a fresh process — heap, goroutines and
// connections never carry over from one workload to the next — copies its
// output through, and returns the end-to-end values of its last line.
func runChild(workload string, o options) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var parsed struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result object: %w", workload, err)
	}
	if !parsed.Correct {
		return nil, fmt.Errorf("%s: run reported itself incorrect", workload)
	}
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.name] = parsed.Metrics[d.name].Value
	}
	return vals, nil
}

// runSet runs all five workloads, or with aa all five twice, and then says
// for every workload and end-to-end metric how far the two sets lie apart.
func runSet(o options, aa bool) int {
	passes := 1
	if aa {
		passes = 2
		o.trace = 0
	}
	sets := make([]map[string]map[string]float64, passes)
	for p := range sets {
		sets[p] = map[string]map[string]float64{}
		for _, w := range workloads {
			vals, err := runChild(w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			sets[p][w.name] = vals
		}
	}
	if !aa {
		return 0
	}
	fmt.Printf("\nA/A: two sets of the same code\n%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "apart", "bound")
	var over []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name][d.name], sets[1][w.name][d.name]
			apart := math.Abs(b-a) / a
			mark := ""
			if apart > d.bound || a <= 0 {
				mark = "  OVER"
				over = append(over, w.name+"/"+d.name)
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.name, d.name, a, b, apart*100, d.bound*100, mark)
		}
	}
	if len(over) > 0 {
		fmt.Printf("A/A failed: %s\n", strings.Join(over, ", "))
		return 1
	}
	fmt.Println("A/A passed: every end-to-end metric within its bound")
	return 0
}
