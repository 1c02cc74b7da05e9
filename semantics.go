package mctsui

// The paper's "Ongoing Work" section names two extensions, both implemented
// here: (1) integrating with a query engine so semantically invalid widget
// combinations can be detected, and (2) using co-occurrence of subtrees in
// the query log to flag unlikely combinations of widget choices.

import (
	"sort"

	"repro/internal/difftree"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// SemanticReport summarizes engine-backed validation of an interface: how
// many of its expressible queries actually execute against a database.
type SemanticReport struct {
	Checked    int      // queries enumerated (capped)
	Executable int      // queries the engine accepted
	Errors     []string // first few engine errors, for diagnostics
}

// Fraction returns Executable/Checked (1 when nothing was checked).
func (r SemanticReport) Fraction() float64 {
	if r.Checked == 0 {
		return 1
	}
	return float64(r.Executable) / float64(r.Checked)
}

// ValidateSemantics enumerates up to limit expressible queries and executes
// each against db, reporting how many are semantically valid. This is the
// paper's proposed query-engine integration: interfaces whose widgets can
// express nonsense (e.g. a BETWEEN with a missing bound after aggressive
// factoring) score below 1.
func (f *Interface) ValidateSemantics(db *engine.DB, limit int) SemanticReport {
	var rep SemanticReport
	const maxErrors = 5
	for _, q := range difftree.EnumerateQueries(f.res.DiffTree, limit, 2) {
		rep.Checked++
		if _, err := engine.Exec(db, q); err != nil {
			if len(rep.Errors) < maxErrors {
				rep.Errors = append(rep.Errors, sqlparser.Render(q)+": "+err.Error())
			}
			continue
		}
		rep.Executable++
	}
	return rep
}

// Plausibility scores the session's current widget combination against the
// query log using pairwise co-occurrence: for every pair of currently
// active choice nodes, did any log query use this exact pair of values? It
// returns the fraction of observed pairs (1.0 = every pair was seen in the
// log; low values flag combinations the analyst never used).
func (s *Session) Plausibility() float64 {
	f := s.iface
	f.cooccurOnce.Do(f.buildCooccur)
	q, err := s.Query()
	if err != nil {
		return 0
	}
	asg, ok := difftree.Express(f.res.DiffTree, q)
	if !ok {
		return 0
	}
	// Deterministic order for reproducible scores.
	ordered := orderedNodes(f.res.DiffTree, asg)
	pairs, seen := 0, 0
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			a, b := ordered[i], ordered[j]
			pairs++
			if f.cooccur[pairKey{a, asg[a], b, asg[b]}] {
				seen++
			}
		}
	}
	if pairs == 0 {
		return 1
	}
	return float64(seen) / float64(pairs)
}

type pairKey struct {
	a  *difftree.Node
	av string
	b  *difftree.Node
	bv string
}

// buildCooccur indexes every pair of (choice, value) assignments observed
// across the log queries. It runs once per interface, through cooccurOnce:
// sessions of one interface may score plausibility concurrently.
func (f *Interface) buildCooccur() {
	f.cooccur = make(map[pairKey]bool)
	for _, q := range f.res.Log {
		asg, ok := difftree.Express(f.res.DiffTree, q)
		if !ok {
			continue
		}
		ordered := orderedNodes(f.res.DiffTree, asg)
		for i := 0; i < len(ordered); i++ {
			for j := i + 1; j < len(ordered); j++ {
				a, b := ordered[i], ordered[j]
				f.cooccur[pairKey{a, asg[a], b, asg[b]}] = true
			}
		}
	}
}

// orderedNodes returns the assignment's choice nodes sorted by their
// pre-order position in the difftree, so pair keys are direction-stable
// regardless of map-iteration order.
func orderedNodes(root *difftree.Node, asg difftree.Assignment) []*difftree.Node {
	pos := make(map[*difftree.Node]int)
	i := 0
	difftree.WalkPath(root, func(n *difftree.Node, _ difftree.Path) bool {
		pos[n] = i
		i++
		return true
	})
	out := make([]*difftree.Node, 0, len(asg))
	for n := range asg {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool { return pos[out[a]] < pos[out[b]] })
	return out
}
