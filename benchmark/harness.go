package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// sig is what an operation's answer is checked by: the counts that must
// come out the same every time the same operation runs. cached (the
// server answered from its plan cache) rides along and is not compared.
type sig struct {
	rows, paths, edges int64
	cached             bool
}

func (s sig) same(o sig) bool { return s.rows == o.rows && s.paths == o.paths && s.edges == o.edges }

// passRec is one pass over the operation sequence: per position its
// client-observed latency and answer signature, and the pass's wall and
// process CPU time.
type passRec struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64            // bytes allocated, process-wide
	lat   [][]time.Duration // [lane][position]
	sigs  [][]sig
	errs  int64
	err   error // first operation error, for the report
}

// opID is the identifier the spans of one operation share.
func opID(lane, i int) int64 { return int64(lane)<<32 | int64(i) + 1 }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs every lane's operations once, lanes concurrently and each
// lane closed-loop: the next operation is sent when the previous answer
// is in. With a tracer, each operation leaves an "op" span; inflight
// (optional) is told which span is open so a lower layer can parent its
// own spans to it.
func runPass(shape []int, do func(lane, i int) (sig, error), tr *tracer, inflight func(*spanRef)) passRec {
	rec := passRec{lat: make([][]time.Duration, len(shape)), sigs: make([][]sig, len(shape))}
	for l, n := range shape {
		rec.lat[l] = make([]time.Duration, n)
		rec.sigs[l] = make([]sig, n)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	alloc0, cpu0, start := totalAlloc(), cpuTime(), time.Now()
	for l, n := range shape {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				var ref *spanRef
				if tr != nil {
					ref = tr.reserve(opID(l, i))
					if inflight != nil {
						inflight(ref)
					}
				}
				t0 := time.Now()
				s, err := do(l, i)
				t1 := time.Now()
				if tr != nil {
					if inflight != nil {
						inflight(nil)
					}
					tr.finish(ref, "op", t0, t1)
				}
				rec.lat[l][i], rec.sigs[l][i] = t1.Sub(t0), s
				if err != nil {
					mu.Lock()
					rec.errs++
					if rec.err == nil {
						rec.err = fmt.Errorf("lane %d op %d: %w", l, i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rec.wall, rec.cpu, rec.alloc = time.Since(start), cpuTime()-cpu0, totalAlloc()-alloc0
	return rec
}

func median[T int64 | float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the nearest-rank index of quantile q among n sorted values.
func rankOf(q float64, n int) int {
	return min(n-1, max(0, int(math.Ceil(q*float64(n)))-1))
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(q, len(sorted))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// position is one place in the operation sequence with its latency over
// the passes: the median of its samples, which rejects a host stall that
// touches fewer than half the passes and hides nothing that recurs. A
// collector cycle that overlaps an operation is the program's own doing
// and stays in: it overlaps about half of Host-Host(6)'s executions.
type position struct {
	class int
	lat   time.Duration
}

// summary is what the measured passes come to.
type summary struct {
	ops        int // positions in the sequence
	samples    int // positions × passes
	positions  []position
	sorted     []time.Duration // per-position latencies, ascending
	wall       time.Duration   // median pass wall time
	cpuPerOp   time.Duration   // median over passes
	allocPerOp float64         // bytes, median over passes
	spreadPct  float64         // (q3-q1)/median of the pass wall times
	rawP99     time.Duration   // pooled over every sample, not denoised
	mismatch   int64           // answers that differ from the reference pass
	errs       int64
	firstErr   error
}

// summarize folds the passes. ref is the pass whose answers the others
// must repeat (the warm-up pass: "pass 1").
func summarize(recs []passRec, ref passRec, classOf func(lane, i int) int) summary {
	var s summary
	var walls []time.Duration
	var cpus []time.Duration
	var allocs []float64
	var raw []time.Duration
	for _, r := range recs {
		walls = append(walls, r.wall)
		s.errs += r.errs
		if s.firstErr == nil {
			s.firstErr = r.err
		}
	}
	for l := range ref.lat {
		for i := range ref.lat[l] {
			samples := make([]time.Duration, len(recs))
			for p, r := range recs {
				samples[p] = r.lat[l][i]
				if !r.sigs[l][i].same(ref.sigs[l][i]) {
					s.mismatch++
					if s.firstErr == nil {
						s.firstErr = fmt.Errorf("lane %d op %d answered %+v in pass %d, %+v in the reference pass",
							l, i, r.sigs[l][i], p+1, ref.sigs[l][i])
					}
				}
			}
			raw = append(raw, samples...)
			s.positions = append(s.positions, position{class: classOf(l, i), lat: median(samples)})
		}
	}
	s.ops, s.samples = len(s.positions), len(raw)
	for _, r := range recs {
		cpus = append(cpus, r.cpu/time.Duration(s.ops))
		allocs = append(allocs, float64(r.alloc)/float64(s.ops))
	}
	s.sorted = make([]time.Duration, s.ops)
	for i, p := range s.positions {
		s.sorted[i] = p.lat
	}
	slices.Sort(s.sorted)
	slices.Sort(raw)
	s.rawP99 = quantile(raw, 0.99)
	s.wall, s.cpuPerOp, s.allocPerOp = median(walls), median(cpus), median(allocs)
	if len(walls) >= 3 {
		slices.Sort(walls)
		q1, q3 := walls[rankOf(0.25, len(walls))], walls[rankOf(0.75, len(walls))]
		s.spreadPct = 100 * float64(q3-q1) / float64(median(walls))
	}
	return s
}

// classLines describes each operation class by its positions' latencies.
func (s *summary) classLines(classes []string) string {
	byClass := make([][]time.Duration, len(classes))
	for _, p := range s.positions {
		byClass[p.class] = append(byClass[p.class], p.lat)
	}
	var out string
	for c, lat := range byClass {
		slices.Sort(lat)
		out += fmt.Sprintf("class %s: %d positions, %.3f / %.3f / %.3f ms at their 10th / 50th / 90th percentile\n",
			classes[c], len(lat), ms(quantile(lat, 0.10)), ms(quantile(lat, 0.50)), ms(quantile(lat, 0.90)))
	}
	return out
}

// placement reports which operation class owns the ranks around quantile
// q (±half, as a share of all positions) and whether the window straddles
// two classes. Classes own ranks in the order of what they cost (the
// median of their positions' latencies), each as many as it has
// positions: Host-Host(6), half of path-mining and dearer than VM-VM's
// 30%, owns ranks 30-80%. The window straddles when it reaches past its
// owner's ranks, or when its owner does not hold most of it (the classes'
// costs overlap too far for ranks to be owned at all). A percentile on
// the boundary between two classes moved 11-29% between runs of the same
// code; inside one class it repeats.
func (s *summary) placement(q, half float64, classes []string) (desc string, straddles bool) {
	order := slices.Clone(s.positions)
	slices.SortFunc(order, func(a, b position) int { return int(a.lat - b.lat) })
	byClass := make([][]time.Duration, len(classes)) // ascending, as order is
	for _, p := range order {
		byClass[p.class] = append(byClass[p.class], p.lat)
	}
	byCost := make([]int, len(classes))
	for c := range byCost {
		byCost[c] = c
	}
	slices.SortFunc(byCost, func(a, b int) int { return int(median(byClass[a]) - median(byClass[b])) })

	lo, hi := rankOf(q-half, len(order)), rankOf(q+half, len(order))
	owner, end := byCost[0], 0 // end: one past the owner's last rank
	for _, c := range byCost {
		if owner, end = c, end+len(byClass[c]); lo < end {
			break
		}
	}
	held := 0
	for _, p := range order[lo : hi+1] {
		if p.class == owner {
			held++
		}
	}
	width := hi - lo + 1
	desc = fmt.Sprintf("%d-%d of %d (%.3f to %.3f ms), inside %s, which owns ranks %d-%d and holds %d of these %d positions",
		lo+1, hi+1, len(order), ms(order[lo].lat), ms(order[hi].lat), classes[owner], end-len(byClass[owner])+1, end, held, width)
	return desc, hi >= end || held*2 <= width
}
