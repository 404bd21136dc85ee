// Package fops implements the f-plan operators of the FDB engine on
// coupled (f-tree, factorised representation) pairs: the restructuring
// operators swap, merge, absorb, selection with a constant, projection
// (remove leaf) and renaming from Bakibayev et al. (PVLDB 2012), and the
// new aggregation operator γ_F(U) of Section 3 of the paper.
//
// Every operator transforms the f-tree (via the plan/apply split of
// package ftree) and the representation consistently, preserving the
// representation invariants: values in unions stay sorted and distinct,
// and empty unions are pruned upwards.
package fops

import (
	"fmt"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// Paranoid enables expensive internal consistency checks inside operators
// (for example, verifying that subtrees classified as independent during a
// swap really are equal across contexts). Tests enable it; benchmarks run
// with it off.
var Paranoid = false

// CmpOp is a comparison operator for selections with constants.
type CmpOp uint8

// Supported comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Holds reports whether "a op b" holds under the total value order.
func (op CmpOp) Holds(a, b values.Value) bool {
	c := values.Compare(a, b)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	default:
		return false
	}
}

// CanGamma reports whether γ_fields over the subtree rooted at u composes
// with the aggregates already present inside it (Proposition 2): it
// attempts to compile the evaluator.
func CanGamma(u *ftree.Node, fields []ftree.AggField) error {
	_, err := frep.NewEvaluator(u, fields)
	return err
}
