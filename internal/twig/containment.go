package twig

// Containment and minimization of twig queries.
//
// Contained(p, q) decides p ⊆ q (every node selected by p on any document is
// selected by q) via the existence of a homomorphism from q to p. The
// homomorphism test is sound for the whole class and complete for the
// fragment XP{/,//,[]} (no wildcards) — the classical Miklau–Suciu result.
// With wildcards the general problem is coNP-complete; the learner only ever
// compares queries produced by generalization, for which the homomorphism
// test is exact in practice.

// Contained reports whether p ⊆ q, using the homomorphism characterization.
func Contained(p, q Query) bool {
	if p.Root == nil || q.Root == nil {
		return false
	}
	// A homomorphism maps q's pattern into p's pattern: root to root
	// (respecting root axes), output node to output node, labels
	// preserved (q-wildcards map anywhere), child edges to child edges,
	// descendant edges to downward paths of length >= 1.
	h := &homChecker{p: p, q: q, memo: map[[2]*Node]int{}}
	// Root mapping: if q's root axis is Child, it must map to p's root
	// and p's root must also be Child-anchored (q requires the document
	// root to match; p must guarantee its root is at the document root).
	if q.Root.Axis == Child {
		if p.Root.Axis != Child {
			return false
		}
		return h.hom(q.Root, p.Root)
	}
	// q's root is Descendant: it may map to any node of p.
	ok := false
	p.Root.walk(func(v *Node) {
		if !ok && h.hom(q.Root, v) {
			ok = true
		}
	})
	return ok
}

// Equivalent reports p ≡ q (mutual containment).
func Equivalent(p, q Query) bool { return Contained(p, q) && Contained(q, p) }

type homChecker struct {
	p, q Query
	memo map[[2]*Node]int // 0 unknown, 1 true, 2 false
}

// hom reports whether the q-subtree rooted at u maps into the p-subtree
// rooted at v with u -> v, preserving the output flag.
func (h *homChecker) hom(u, v *Node) bool {
	key := [2]*Node{u, v}
	if r := h.memo[key]; r != 0 {
		return r == 1
	}
	res := h.homCompute(u, v)
	if res {
		h.memo[key] = 1
	} else {
		h.memo[key] = 2
	}
	return res
}

func (h *homChecker) homCompute(u, v *Node) bool {
	// Label: a labeled q-node only maps onto the same label; a q-wildcard
	// maps onto anything (including p-wildcards).
	if u.Label != Wildcard && u.Label != v.Label {
		return false
	}
	// Output preservation: q's output node must map onto p's output node,
	// and nothing else may map there... only the first half is required
	// for containment of unary queries.
	if u.Output && !v.Output {
		return false
	}
	for _, uc := range u.Children {
		ok := false
		if uc.Axis == Child {
			for _, vc := range v.Children {
				if vc.Axis == Child && h.hom(uc, vc) {
					ok = true
					break
				}
			}
		} else {
			// Descendant edge: uc maps to any proper descendant of
			// v reachable by >= 1 pattern edges of any axis.
			ok = h.homBelow(uc, v)
		}
		if !ok {
			return false
		}
	}
	return true
}

// homBelow reports whether uc maps to some proper descendant of v.
func (h *homChecker) homBelow(uc, v *Node) bool {
	for _, vc := range v.Children {
		if h.hom(uc, vc) || h.homBelow(uc, vc) {
			return true
		}
	}
	return false
}

// Minimize removes redundant filter branches: a branch is removed when the
// query without it is equivalent to the original. This is iterated to a
// fixpoint, yielding the paper's "smaller learned query" normal form used
// when reporting query sizes. The input query is not modified.
func Minimize(q Query) Query {
	cur := q.Clone()
	for {
		removed := false
		var try func(n *Node) bool
		try = func(n *Node) bool {
			for i, c := range n.Children {
				if containsOutput(c) {
					if try(c) {
						return true
					}
					continue
				}
				// Tentatively drop branch i.
				saved := n.Children
				n.Children = append(append([]*Node{}, saved[:i]...), saved[i+1:]...)
				if Equivalent(cur, q) {
					return true // keep removal
				}
				n.Children = saved
				if try(c) {
					return true
				}
			}
			return false
		}
		removed = try(cur.Root)
		if !removed {
			return cur
		}
	}
}
