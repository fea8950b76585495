// Quickstart: define an OPS5 production system, run the
// match-resolve-act interpreter, and inspect the result.
package main

import (
	"fmt"
	"log"
	"os"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
)

const program = `
(literalize task name state)
(literalize worker name)

; Assign any unassigned task to an idle worker.
(p assign
    (task ^name <t> ^state open)
    (worker ^name <w>)
    -(assignment ^task <t>)
    -(assignment ^worker <w>)
    -->
    (make assignment ^task <t> ^worker <w>)
    (modify 1 ^state assigned)
    (write assigned <t> to <w>))

; Halt when no open tasks remain.
(p done
    -(task ^state open)
    (clock ^t <now>)
    -->
    (write all tasks assigned at <now>)
    (halt))
`

func main() {
	prog, err := ops5.ParseProgram(program)
	if err != nil {
		log.Fatal(err)
	}
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Output: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}

	// Initial working memory.
	e.MakeWME("clock", "t", 0)
	for i := 1; i <= 3; i++ {
		e.MakeWME("task", "name", fmt.Sprintf("t%d", i), "state", "open")
		e.MakeWME("worker", "name", fmt.Sprintf("w%d", i))
	}

	fired, err := e.Run(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfired %d productions, %d wmes in working memory, halted=%v\n",
		fired, e.WMCount(), e.Halted())

	s := e.Network().Stats()
	fmt.Printf("rete network: %d alpha patterns, %d join nodes, %d negative nodes\n",
		s.AlphaPatterns, s.JoinNodes, s.NegativeNodes)
}
