package rpe

import (
	"reflect"
	"testing"
	"testing/quick"
)

// productFeasibility is the reference for transFeasibility: it
// materialises the product graph over (state, last consumed kind) as an
// edge list with forward and reverse adjacency, searches it from the
// start and from the accept state, and marks a (transition, kind) pair
// feasible when its product edge joins the two searches.
func productFeasibility(n *NFA, isEdgeAtom func(*Atom) bool) []kindMask {
	pid := func(state, last int) int { return state*lasts + last }
	total := n.NumStates * lasts
	type pedge struct {
		from, to int
		trans    int // index into n.Trans, -1 for epsilon
		kind     kindMask
	}
	var edges []pedge
	for s := 0; s < n.NumStates; s++ {
		for last := 0; last < lasts; last++ {
			from := pid(s, last)
			for _, to := range n.eps.of(s) {
				edges = append(edges, pedge{from: from, to: pid(to, last), trans: -1})
			}
			for _, ti := range n.OutTrans(s) {
				tr := n.Trans[ti]
				kinds := kindNode | kindEdge
				if tr.Atom != nil {
					if isEdgeAtom(tr.Atom) {
						kinds = kindEdge
					} else {
						kinds = kindNode
					}
				}
				for _, k := range []struct {
					mask kindMask
					last int
				}{{kindNode, 1}, {kindEdge, 2}} {
					if kinds&k.mask == 0 || last == k.last {
						continue
					}
					edges = append(edges, pedge{from: from, to: pid(tr.To, k.last), trans: ti, kind: k.mask})
				}
			}
		}
	}
	fwdAdj := make([][]int, total)
	revAdj := make([][]int, total)
	for i, e := range edges {
		fwdAdj[e.from] = append(fwdAdj[e.from], i)
		revAdj[e.to] = append(revAdj[e.to], i)
	}
	search := func(starts []int, adj [][]int, pick func(pedge) int) []bool {
		seen := make([]bool, total)
		stack := append([]int{}, starts...)
		for _, s := range starts {
			seen[s] = true
		}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range adj[cur] {
				if nxt := pick(edges[ei]); !seen[nxt] {
					seen[nxt] = true
					stack = append(stack, nxt)
				}
			}
		}
		return seen
	}
	reach := search([]int{pid(n.Start, 0)}, fwdAdj, func(e pedge) int { return e.to })
	co := search([]int{pid(n.Accept, 0), pid(n.Accept, 1), pid(n.Accept, 2)}, revAdj,
		func(e pedge) int { return e.from })
	out := make([]kindMask, len(n.Trans))
	for _, e := range edges {
		if e.trans >= 0 && reach[e.from] && co[e.to] {
			out[e.trans] |= e.kind
		}
	}
	return out
}

// feasibilityMatchesProduct reports whether the walk and the product
// graph give every transition of c's automaton the same kind mask.
func feasibilityMatchesProduct(t *testing.T, c *Checked) bool {
	t.Helper()
	isEdge := func(a *Atom) bool { return c.classes[a.id].IsEdge() }
	want := productFeasibility(c.nfa, isEdge)
	if !reflect.DeepEqual(c.feas, want) {
		t.Logf("%s: walk %v, product graph %v", c.Expr, c.feas, want)
		return false
	}
	return true
}

func TestFeasibilityMatchesProductGraph(t *testing.T) {
	for _, src := range []string{
		"VNF()->VFC()->VM()->Host(id=23245)",
		"VNF()->[Vertical()]{1,6}->Host(id=23245)",
		"VNF(id=123)->Vertical(){1,6}->Host()",
		"ConnectsTo(){1,8}",
		"(VNF()|VFC())->[HostedOn(){1,5}]->VM()",
		"VNF()->[HostedOn()]{1-3}->(VM(id=55)|Docker(id=66))->HostedOn(){1,2}->Host()",
		"VNF(id=55)->[ConnectsTo(){1,5}]->VM(id=66)",
		"[HostedOn()|ConnectsTo()]{1,4}",
		"Host(name='src')->[ConnectsTo()]{1,6}->Host(name='tgt')",
		"[VNF()]{0,4}->[Vertical()]{0,4}",
		"VM(status='Green')",
		"Host()->[PhysicalLink()]{1,6}->Host()",
		"VM()->OnServer()->Host()",
	} {
		if !feasibilityMatchesProduct(t, checked(t, src)) {
			t.Errorf("%s: feasibility differs from the product graph", src)
		}
	}
	f := func(g genExpr) bool {
		c, err := Check(g.E.clone(), testSchema)
		return err != nil || feasibilityMatchesProduct(t, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
