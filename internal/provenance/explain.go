package provenance

import (
	"fmt"
	"strings"
)

// Explain renders the provenance tree as the kind of step-by-step prose
// explanation the paper opens with ("The bus was dispatched at the
// terminal at 4:00pm, and arrived at stop A at 4:13pm; ..."): the trigger
// chain is narrated in order, and each step lists the state it depended
// on. This is the comprehensive-but-verbose answer that motivates
// differential provenance.
func (t *Tree) Explain() string {
	chain, err := t.TriggerChain()
	if err != nil {
		return "no explanation: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Why did %s appear on %s?\n", t.Vertex.Tuple, t.Vertex.Node)
	step := 1
	// Narrate from the seed (end of chain) to the root.
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		switch n.Vertex.Type {
		case Insert:
			fmt.Fprintf(&sb, "%2d. %s entered the system at %s (time %s).\n",
				step, n.Vertex.Tuple, n.Vertex.Node, n.Vertex.At)
			step++
		case Derive:
			fmt.Fprintf(&sb, "%2d. rule %s fired on %s, deriving %s", step, n.Vertex.Rule, n.Vertex.Node, n.Vertex.Tuple)
			deps := dependencies(n, chain)
			if len(deps) > 0 {
				fmt.Fprintf(&sb, "\n    because: %s", strings.Join(deps, "; "))
			}
			sb.WriteString(".\n")
			step++
		}
	}
	fmt.Fprintf(&sb, "In total, the full explanation has %d vertexes.\n", t.Size())
	return sb.String()
}

// dependencies lists a derivation's side conditions (children not on the
// trigger chain).
func dependencies(d *Tree, chain []*Tree) []string {
	onChain := map[*Tree]bool{}
	for _, n := range chain {
		onChain[n] = true
	}
	var out []string
	for _, c := range d.Children {
		if onChain[c] {
			continue
		}
		v := c.Vertex
		switch v.Type {
		case Exist:
			out = append(out, fmt.Sprintf("%s held %s (since %s)", v.Node, v.Tuple, v.At))
		case Appear:
			out = append(out, fmt.Sprintf("%s saw %s at %s", v.Node, v.Tuple, v.At))
		}
	}
	return out
}
