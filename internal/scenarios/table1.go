package scenarios

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/treediff"
)

// Table1Row reproduces one row block of the paper's Table 1: the number
// of vertexes returned by each diagnostic technique.
type Table1Row struct {
	Scenario  string
	GoodTree  int   // vertexes in T_G
	BadTree   int   // vertexes in T_B
	PlainDiff int   // vertexes in the naive tree diff (§2.5 strawman)
	DiffProv  []int // vertexes returned by DiffProv, per round
	Rounds    int
}

// DiffProvTotal sums the per-round counts.
func (r Table1Row) DiffProvTotal() int {
	n := 0
	for _, v := range r.DiffProv {
		n += v
	}
	return n
}

func (r Table1Row) String() string {
	per := make([]string, len(r.DiffProv))
	for i, v := range r.DiffProv {
		per[i] = fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("%-6s good=%-5d bad=%-5d plaindiff=%-5d diffprov=%s",
		r.Scenario, r.GoodTree, r.BadTree, r.PlainDiff, strings.Join(per, "/"))
}

// Run executes the scenario's diagnosis and assembles its Table 1 row.
func (s *Scenario) Run() (Table1Row, *core.Result, error) {
	row := Table1Row{
		Scenario:  s.Name,
		GoodTree:  s.Good.Size(),
		BadTree:   s.Bad.Size(),
		PlainDiff: treediff.PlainDiff(s.Good, s.Bad),
	}
	res, err := s.Diagnose()
	if err != nil {
		return row, nil, err
	}
	if s.Check != nil {
		if err := s.Check(res); err != nil {
			return row, res, fmt.Errorf("%s: wrong root cause: %v", s.Name, err)
		}
	}
	row.Rounds = len(res.Rounds)
	for _, round := range res.Rounds {
		row.DiffProv = append(row.DiffProv, deltaVertexes(s.World, round.Changes))
	}
	return row, res, nil
}

// deltaVertexes counts the vertexes DiffProv returns for a set of
// changes, as Table 1 does: one per inserted or deleted tuple, plus one
// for the old value when an insertion into a keyed table replaces an
// existing tuple (the paper reports two vertexes for the MR scenarios:
// the old and new configuration/code values).
func deltaVertexes(w core.World, changes []replay.Change) int {
	prog := w.Program()
	n := 0
	seen := map[string]bool{}
	for _, c := range changes {
		k := fmt.Sprintf("%v|%s|%s", c.Insert, c.Node, c.Tuple.Key())
		if seen[k] {
			continue
		}
		seen[k] = true
		n++
		if !c.Insert {
			continue
		}
		decl := prog.Decl(c.Tuple.Table)
		if decl == nil || len(decl.Key) == 0 {
			continue
		}
		// Replaced counterpart: same primary key, different tuple.
		for _, t := range w.TuplesMatchingAt(c.Node, c.Tuple.Table, ndlog.Stamp{T: c.Tick, Seq: ^uint64(0)}, nil) {
			if t.Key() != c.Tuple.Key() && samePrimaryKey(decl, t, c.Tuple) {
				n++
				break
			}
		}
	}
	return n
}

func samePrimaryKey(decl *ndlog.TableDecl, a, b ndlog.Tuple) bool {
	for _, i := range decl.Key {
		if i < len(a.Args) && i < len(b.Args) && a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Table1 runs every scenario at the given scale and returns the rows in
// the paper's order.
func Table1(scale Scale) ([]Table1Row, error) {
	all, err := All(scale)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, s := range all {
		row, _, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", s.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
