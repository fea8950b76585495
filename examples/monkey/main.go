// Monkey: the classic monkey-and-bananas planning demo with OPS5
// watch tracing, plus the dynamic production-management features —
// a production added live against existing working memory, and
// excision.
package main

import (
	"fmt"
	"log"
	"os"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/workloads"
)

func main() {
	prog, err := ops5.ParseProgram(workloads.MonkeyBananas)
	if err != nil {
		log.Fatal(err)
	}
	// Watch level 1 echoes each firing with its time tags, as OPS5's
	// (watch 1) did.
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Output: os.Stdout, Watch: 1})
	if err != nil {
		log.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(workloads.MonkeyBananasWMEs)
	if err != nil {
		log.Fatal(err)
	}
	e.InsertWMEs(wmes...)

	fired, err := e.Run(50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan complete: %d firings, halted=%v\n", fired, e.Halted())

	// Dynamic production management: add an observer production LIVE.
	// Its private Rete nodes are primed by replaying current working
	// memory, so it matches the monkey's final state immediately —
	// nothing is re-asserted.
	obs, err := ops5.ParseProduction(`
(p observe (monkey ^holds bananas ^at <loc>) --> (write observer: monkey holds bananas at <loc>))`)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.AddProductionLive(obs); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconflict set after live addition:")
	for _, in := range e.ConflictSet() {
		fmt.Printf("  %s (time tags %v)\n", in.Prod.Name, in.TimeTags)
	}

	// And excise it again: its instantiations leave the conflict set.
	if err := e.ExciseProduction("observe"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after excising the observer: %d instantiations\n", len(e.ConflictSet()))
}
