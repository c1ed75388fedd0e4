package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// benchmarkFile is BENCHMARK.json as the agreement check and the test
// read it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spinSpread times a fixed integer loop a few dozen times: how steady the
// host itself is, with nothing of the repository in the loop.
func spinSpread() (medianMS, spreadPct, worstPct float64) {
	var times []float64
	for range 40 {
		start := time.Now()
		x := uint64(1)
		for i := range 30_000_000 {
			x = x*6364136223846793005 + uint64(i)
		}
		if x == 0 {
			panic("unreachable")
		}
		times = append(times, ms(time.Since(start)))
	}
	q1, q2, q3 := quartiles(times)
	return q2, 100 * (q3 - q1) / q2, 100 * (slices.Max(times)/q2 - 1)
}

// runAgree is the benchmark's own acceptance test: two sets of n runs
// per workload, interleaved and every run on another seed, through the
// command the driver uses. It prints, per end-to-end metric, both sets'
// medians and spreads ((q3-q1)/median) and how much worse the second
// median is than the first, and fails when a spread or a gap exceeds the
// metric's bound. A spread over a third of its bound is marked "wide":
// within the bound, but with less margin than a bound should have. The
// time metrics, which a plain run prints but does not report, are listed
// after them without a bound: the record of why they are per-layer.
func runAgree(n int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	med, spread, worst := spinSpread()
	fmt.Fprintf(out, "# Baseline: two sets of %d runs per workload, %d s each\n\n", n, bf.RunSeconds)
	fmt.Fprintf(out, "Host: %d cores, %s, %s/%s. A fixed integer spin loop took %.1f ms at the median over 40 runs,\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, med)
	fmt.Fprintf(out, "spread (q3-q1)/median %.2f%%, worst run %.0f%% over the median.\n\n", spread, worst)
	fmt.Fprintln(out, "Spread is (q3-q1)/median over a set's runs, each on its own seed (and over both sets' runs together);")
	fmt.Fprintln(out, "gap is how much worse set B's median is than set A's (negative: better). A set's spread and the gap")
	fmt.Fprintln(out, "must stay within the metric's bound (OVER otherwise); a spread over a third of the bound is marked wide.")

	var failures []string
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := range 2 * n {
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(i+1),
				"--seconds", fmt.Sprint(bf.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if err != nil {
				for _, l := range lines {
					if strings.HasPrefix(l, "WRONG:") {
						err = fmt.Errorf("%w; %s", err, l)
					}
				}
				return fmt.Errorf("%s seed %d: %w", w.Name, i+1, err)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, i+1, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: incorrect run (%d of %d failed)", w.Name, i+1, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			for _, l := range lines {
				var name, unit string
				var v float64
				if n, _ := fmt.Sscanf(l, "%s %g %s", &name, &v, &unit); n == 3 && strings.HasPrefix(name, "harness.") {
					sets[i%2][name] = append(sets[i%2][name], v)
				}
			}
		}
		fmt.Fprintf(out, "\n## %s\n\n", w.Name)
		fmt.Fprintln(out, "| metric | unit | median A | median B | spread A | spread B | spread of all | gap B vs A | bound | |")
		fmt.Fprintln(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
		for _, m := range bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			u1, u2, u3 := quartiles(append(slices.Clone(sets[0][m.Name]), sets[1][m.Name]...))
			gap := (b2 - a2) / a2
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch {
			case gap > m.Bound || max(sa, sb) > m.Bound:
				verdict = "OVER"
				failures = append(failures, w.Name+"/"+m.Name)
			case max(sa, sb) > m.Bound/3:
				verdict = "wide"
			}
			fmt.Fprintf(out, "| %s | %s | %.4f | %.4f | %.2f%% | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, a2, b2, 100*sa, 100*sb, 100*(u3-u1)/u2, 100*gap, 100*m.Bound, verdict)
		}
		for _, m := range timings {
			a1, a2, a3 := quartiles(sets[0][m.name])
			b1, b2, b3 := quartiles(sets[1][m.name])
			u1, u2, u3 := quartiles(append(slices.Clone(sets[0][m.name]), sets[1][m.name]...))
			gap := (b2 - a2) / a2
			if m.name == "harness.ops_per_s" {
				gap = -gap
			}
			fmt.Fprintf(out, "| %s | %s | %.4f | %.4f | %.2f%% | %.2f%% | %.2f%% | %+.2f%% | | per-layer |\n",
				m.name, m.unit, a2, b2, 100*(a3-a1)/a2, 100*(b3-b1)/b2, 100*(u3-u1)/u2, 100*gap)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("over bound: %s", strings.Join(failures, ", "))
	}
	return nil
}
