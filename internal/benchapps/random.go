package benchapps

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomSeed seeds the random-program tests: the paper's publication date.
const RandomSeed = 20040609

// RandomProgram generates a small random MiniNesC program over two globals
// (g, s) and one local (l), mixing atomic sections, guarded branches,
// loops, and havoc, drawing every choice from rng. The programs exercise
// the whole pipeline: tests cross-validate CIRC's verdicts on them against
// exhaustive explicit-state checking.
func RandomProgram(rng *rand.Rand) string {
	g := &progGen{rng: rng}
	return g.program()
}

// progGen builds one random program.
type progGen struct {
	rng *rand.Rand
	b   strings.Builder
}

func (g *progGen) stmt(depth int, inLoop bool, indent string) {
	switch n := g.rng.Intn(10); {
	case n < 3: // assignment
		g.b.WriteString(indent + g.assign() + "\n")
	case n < 4 && depth > 0: // atomic
		g.b.WriteString(indent + "atomic {\n")
		for i := 0; i <= g.rng.Intn(2); i++ {
			g.stmt(depth-1, inLoop, indent+"  ")
		}
		g.b.WriteString(indent + "}\n")
	case n < 6 && depth > 0: // if
		fmt.Fprintf(&g.b, "%sif (%s) {\n", indent, g.cond())
		g.stmt(depth-1, inLoop, indent+"  ")
		if g.rng.Intn(2) == 0 {
			g.b.WriteString(indent + "} else {\n")
			g.stmt(depth-1, inLoop, indent+"  ")
		}
		g.b.WriteString(indent + "}\n")
	case n < 7 && depth > 0: // choose
		g.b.WriteString(indent + "choose {\n")
		g.stmt(depth-1, inLoop, indent+"  ")
		g.b.WriteString(indent + "} or {\n")
		g.stmt(depth-1, inLoop, indent+"  ")
		g.b.WriteString(indent + "}\n")
	case n < 8: // havoc
		fmt.Fprintf(&g.b, "%s%s = *;\n", indent, g.lhs())
	default:
		g.b.WriteString(indent + "skip;\n")
	}
}

func (g *progGen) lhs() string {
	return []string{"g", "s", "l"}[g.rng.Intn(3)]
}

func (g *progGen) term() string {
	switch g.rng.Intn(5) {
	case 0:
		return "g"
	case 1:
		return "s"
	case 2:
		return "l"
	case 3:
		return fmt.Sprintf("%d", g.rng.Intn(3))
	default:
		return fmt.Sprintf("(%s + %d)", g.lhs(), g.rng.Intn(2))
	}
}

func (g *progGen) assign() string {
	return fmt.Sprintf("%s = %s;", g.lhs(), g.term())
}

func (g *progGen) cond() string {
	ops := []string{"==", "!=", "<", "<="}
	return fmt.Sprintf("%s %s %s", g.term(), ops[g.rng.Intn(len(ops))], g.term())
}

func (g *progGen) program() string {
	g.b.WriteString("global int g;\nglobal int s;\n\nthread T {\n  local int l;\n")
	if g.rng.Intn(2) == 0 {
		g.b.WriteString("  while (1) {\n")
		for i := 0; i <= g.rng.Intn(3); i++ {
			g.stmt(2, true, "    ")
		}
		g.b.WriteString("  }\n")
	} else {
		for i := 0; i <= 2+g.rng.Intn(3); i++ {
			g.stmt(2, false, "  ")
		}
	}
	g.b.WriteString("}\n")
	return g.b.String()
}
