package workloads

import (
	"strconv"
	"strings"
)

// Queens is an N-queens solver written as a pure forward-chaining
// production system with chronological backtracking — the classic
// stress test for conflict-resolution-driven control. The board's
// attack relation is materialized as wmes (production-system LHSs
// cannot compute |c1-c2| == |r1-r2|), and the search strategy rides
// entirely on OPS5 LEX semantics:
//
//   - mark-threat instantiations contain the just-placed queen (the
//     newest wme), so all threats are asserted before the next column
//     is attempted;
//   - give-up shares its newest time tags with place but matches
//     fewer wmes, so under LEX's longer-list-wins rule it fires only
//     when no square in the cursor column is placeable;
//   - the backtrack phase unwinds threats and trial marks through
//     negation-gated cleanup rules, then pops the previous queen.
const Queens = `
(literalize board n)
(literalize cursor col)
(literalize phase name target)
(literalize square col row)
(literalize attack c1 r1 c2 r2)
(literalize queen col row)
(literalize tried col row)
(literalize threat by-col col row)

; Place a queen on an unthreatened, untried square of the cursor
; column and advance. The cursor is modified BEFORE the queen is made,
; so the queen carries the newest time tag and mark-threat outranks
; the next place under LEX.
(p place
    (phase ^name search)
    (cursor ^col <c>)
    (board ^n >= <c>)
    (square ^col <c> ^row <r>)
    -(threat ^col <c> ^row <r>)
    -(tried ^col <c> ^row <r>)
    -(queen ^col <c>)
    -->
    (modify 2 ^col (compute <c> + 1))
    (make queen ^col <c> ^row <r>)
    (make tried ^col <c> ^row <r>))

; Materialize the new queen's threats against later columns.
(p mark-threat
    (phase ^name search)
    (queen ^col <c1> ^row <r1>)
    (attack ^c1 <c1> ^r1 <r1> ^c2 <c2> ^r2 <r2>)
    -(threat ^by-col <c1> ^col <c2> ^row <r2>)
    -->
    (make threat ^by-col <c1> ^col <c2> ^row <r2>))

; The cursor moved past the last column: every column holds a queen.
(p solved
    (phase ^name search)
    (board ^n <n>)
    (cursor ^col > <n>)
    -->
    (write solution found)
    (halt))

; No square in the cursor column is placeable (this instantiation is a
; strict LEX-prefix of place's, so it fires only when place cannot):
; back up one column.
(p give-up
    (phase ^name search)
    (cursor ^col { <c> > 1 })
    -->
    (bind <p> (compute <c> - 1))
    (modify 1 ^name backtrack ^target <p>))

; Nowhere to back up to: the instance is unsatisfiable.
(p exhausted
    (phase ^name search)
    (cursor ^col 1)
    -->
    (write no solution)
    (halt))

; Backtrack cleanup: retract the popped column's threats and the
; abandoned column's trial marks, then pop the queen and resume.
(p unthreat
    (phase ^name backtrack ^target <p>)
    (threat ^by-col <p>)
    -->
    (remove 2))

(p untried
    (phase ^name backtrack)
    (cursor ^col <c>)
    (tried ^col <c> ^row <r>)
    -->
    (remove 3))

(p pop
    (phase ^name backtrack ^target <p>)
    (cursor ^col <c>)
    (queen ^col <p> ^row <r>)
    -(threat ^by-col <p>)
    -(tried ^col <c>)
    -->
    (remove 3)
    (modify 2 ^col <p>)
    (modify 1 ^name search ^target 0))
`

// QueensWMEs builds the initial working memory for an n-queens
// instance: the board, the squares, the column-ordered attack table,
// the cursor, and (last, so its time tag is the newest bookkeeping
// tag) the search phase.
func QueensWMEs(n int) string {
	var b strings.Builder
	writef(&b, "(board ^n %d)\n(cursor ^col 1)\n", n)
	for c := 1; c <= n; c++ {
		for r := 1; r <= n; r++ {
			writef(&b, "(square ^col %d ^row %d)\n", c, r)
		}
	}
	for c1 := 1; c1 <= n; c1++ {
		for c2 := c1 + 1; c2 <= n; c2++ {
			d := c2 - c1
			for r1 := 1; r1 <= n; r1++ {
				for _, r2 := range [...]int{r1, r1 - d, r1 + d} {
					if r2 >= 1 && r2 <= n {
						writef(&b, "(attack ^c1 %d ^r1 %d ^c2 %d ^r2 %d)\n", c1, r1, c2, r2)
					}
				}
			}
		}
	}
	b.WriteString("(phase ^name search ^target 0)\n")
	return b.String()
}

// writef writes format to b with each %d replaced by the next of args
// in decimal: what fmt.Fprintf would write for the generators' one
// verb, with no argument boxed.
func writef(b *strings.Builder, format string, args ...int) {
	var num [20]byte
	for {
		i := strings.Index(format, "%d")
		if i < 0 {
			b.WriteString(format)
			return
		}
		b.WriteString(format[:i])
		b.Write(strconv.AppendInt(num[:0], int64(args[0]), 10))
		format, args = format[i+2:], args[1:]
	}
}
