package opt

import (
	"fmt"
	"strings"
	"time"

	"mtcache/internal/exec"
)

// Explain renders a Plan with its headline properties and its operator
// tree as an indented outline, similar to a textual showplan. Remote
// operators print the SQL they ship — those lines are the DataTransfer
// boundaries.
func Explain(p *Plan) string {
	var b strings.Builder
	b.WriteString(planHeader(p))
	b.WriteString("\n")
	explainRec(&b, p.Root, 0)
	return b.String()
}

// ExplainAnalyze renders a Plan annotated with the runtime statistics
// gathered by an instrumented execution of root (an exec.Instrument-wrapped
// clone of p.Root). Each operator line carries actual rows and wall time;
// subtrees a StartupFilter pruned render "(never executed)", and ChoosePlan
// branches state whether they executed or were pruned.
func ExplainAnalyze(p *Plan, root exec.Operator, total time.Duration) string {
	var b strings.Builder
	b.WriteString(planHeader(p))
	fmt.Fprintf(&b, " actual_time=%s\n", fmtOpDur(total))
	analyzeRec(&b, root, 0)
	return b.String()
}

func planHeader(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%.1f card=%.0f", p.Cost, p.Card)
	if p.Dynamic {
		fmt.Fprintf(&b, " dynamic(Fl=%.3f)", p.GuardFraction)
	}
	switch {
	case p.FullyLocal:
		b.WriteString(" location=Local")
	case p.FullyRemote:
		b.WriteString(" location=Remote")
	default:
		b.WriteString(" location=Mixed")
	}
	if len(p.UsedViews) > 0 {
		fmt.Fprintf(&b, " views=%s", strings.Join(p.UsedViews, ","))
	}
	return b.String()
}

// opLine renders one operator's own line (no children, no indent).
func opLine(op exec.Operator) string {
	switch x := op.(type) {
	case *exec.Scan:
		return fmt.Sprintf("Scan %s", x.TableName)
	case *exec.IndexScan:
		line := fmt.Sprintf("IndexSeek %s.%s", x.TableName, x.IndexName)
		switch {
		case x.Limit > 0 && x.Desc:
			line += fmt.Sprintf(" (last %d)", x.Limit)
		case x.Limit > 0:
			line += fmt.Sprintf(" (first %d)", x.Limit)
		case x.Desc:
			line += " (descending)"
		}
		return line
	case *exec.Filter:
		return "Filter"
	case *exec.StartupFilter:
		if x.Branch != "" {
			return fmt.Sprintf("StartupFilter (ChoosePlan branch=%s)", x.Branch)
		}
		return "StartupFilter (ChoosePlan branch)"
	case *exec.Project:
		return fmt.Sprintf("Project %s", colNames(x.Cols))
	case *exec.Limit:
		return "Top"
	case *exec.Sort:
		return "Sort"
	case *exec.TopN:
		return "TopNSort"
	case *exec.Distinct:
		return "Distinct"
	case *exec.HashAgg:
		return fmt.Sprintf("HashAggregate groups=%d aggs=%d", len(x.GroupBy), len(x.Aggs))
	case *exec.HashJoin:
		if x.LeftOuter {
			return "HashLeftJoin"
		}
		return "HashJoin"
	case *exec.IndexJoin:
		if x.LeftOuter {
			return fmt.Sprintf("IndexLeftJoin %s.%s", x.TableName, x.IndexName)
		}
		return fmt.Sprintf("IndexJoin %s.%s", x.TableName, x.IndexName)
	case *exec.NestedLoop:
		if x.LeftOuter {
			return "NestedLoopLeft"
		}
		return "NestedLoop"
	case *exec.UnionAll:
		return "UnionAll"
	case *exec.Remote:
		return fmt.Sprintf("DataTransfer [%s]", x.SQLText)
	case *exec.Values:
		return fmt.Sprintf("Values rows=%d", len(x.Rows))
	case *exec.VirtualScan:
		return fmt.Sprintf("VirtualScan %s", x.Name)
	default:
		return fmt.Sprintf("%T", op)
	}
}

func explainRec(b *strings.Builder, op exec.Operator, depth int) {
	if inst, ok := op.(*exec.Instrumented); ok {
		explainRec(b, inst.Op, depth)
		return
	}
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), opLine(op))
	for i := 0; op.Child(i) != nil; i++ {
		explainRec(b, *op.Child(i), depth+1)
	}
}

func analyzeRec(b *strings.Builder, op exec.Operator, depth int) {
	inner := op
	inst, ok := op.(*exec.Instrumented)
	if ok {
		inner = inst.Op
	}
	line := opLine(inner)
	if ok {
		if !inst.Stats.Opened {
			line += " (never executed)"
		} else {
			line += fmt.Sprintf(" (actual rows=%d time=%s", inst.Stats.Rows, fmtOpDur(inst.Stats.Time))
			if ij, isIJ := inner.(*exec.IndexJoin); isIJ {
				line += fmt.Sprintf(" seeks=%d", ij.Seeks())
			}
			line += ")"
			if sf, isSF := inner.(*exec.StartupFilter); isSF {
				if sf.Active() {
					line += " [executed]"
				} else {
					line += " [pruned]"
				}
			}
		}
	}
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), line)
	for i := 0; inner.Child(i) != nil; i++ {
		analyzeRec(b, *inner.Child(i), depth+1)
	}
}

func fmtOpDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

func colNames(cols []exec.ColInfo) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}
